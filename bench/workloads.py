"""Workload definitions: generated configs, command mixes and output checks.

A workload is a fixed list of commands (one *pass*). Every run executes a
whole number of passes, so every run has the same op composition; the seed
only shuffles the order inside each pass and picks the ``--seed`` the
commands receive. The expected answers are derived here from the catalog
constants in exact arithmetic, independently of the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

# name -> (kind, per-factor dims, per-factor mu, fiber dim)
CONFIGS = {
    "disc_half": ("ball", (1,), (F(1, 2),), 1),
    "disc_1": ("ball", (1,), (F(1),), 1),
    "disc_2": ("ball", (1,), (F(2),), 1),
    "ball2_c2": ("ball", (2,), (F(1),), 2),
    "ball3_c2": ("ball", (3,), (F(1),), 2),
    "poly_1_2": ("polydisc", (1, 1), (F(1), F(2)), 1),
    "poly_half_1": ("polydisc", (1, 1), (F(1, 2), F(1)), 1),
    "cartan_1x3": ("cartan_type_I", (1, 3), (F(1),), 1),
    "fock2_c2": ("fock", (2,), (F(1),), 2),
}


def config_text(name: str) -> str:
    kind, dims, mus, fiber = CONFIGS[name]
    return (
        f"# generated benchmark config {name}\n"
        f"base.kind = {kind}\n"
        f"base.dims = {','.join(map(str, dims))}\n"
        f"base.mu = {','.join(str(m) for m in mus)}\n"
        f"fiber.dim = {fiber}\n"
    )


# ---------------------------------------------------------------------------
# Closed facts the checks compare against
# ---------------------------------------------------------------------------


def _base_dim(name: str) -> int:
    kind, dims, _, _ = CONFIGS[name]
    return dims[0] * dims[1] if kind == "cartan_type_I" else sum(dims)


def einstein_constants(name: str) -> list[tuple[F, int]]:
    """(c_i, d_i) per factor, c_i = -genus_i / mu_i (0 for the flat base)."""
    kind, dims, mus, _ = CONFIGS[name]
    if kind == "fock":
        return [(F(0), dims[0])]
    if kind == "polydisc":
        return [(-2 / mu, 1) for mu in mus]
    if kind == "cartan_type_I":
        m, n = dims
        return [(-F(m + n) / mus[0], m * n)]
    return [(-F(dims[0] + 1) / mus[0], dims[0])]


def is_einstein(name: str) -> bool:
    d = _base_dim(name)
    return all(c == -(d + 1) for c, _ in einstein_constants(name))


def tau_is_zero(name: str) -> bool:
    d = _base_dim(name)
    return d * (d + 1) + sum(c * di for c, di in einstein_constants(name)) == 0


def immersion_answer(name: str, target: str, h: float) -> str:
    """Catalog immersion facts: C and CP always, CH for ball-like bases at h mu <= 1."""
    target = target.replace("-", "_")
    if target.endswith("_finite"):
        return "not_exists"
    form = target.removesuffix("_infinite")
    if form in ("C", "CP"):
        return "exists"
    kind, _, mus, _ = CONFIGS[name]
    h = F(h)
    if h > 1 or kind in ("fock", "polydisc"):
        return "not_exists"
    return "exists" if h * mus[0] <= 1 else "not_exists"


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass; ``shape`` names its code path."""

    key: str
    command: str
    config: str | None
    args: tuple[str, ...]
    out_dir: bool = False

    @property
    def shape(self) -> str:
        fmt = "csv" if "csv" in self.args else "json"
        return f"{self.command}:{fmt}"

    def argv(self, cfg_dir: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command]
        if self.config is not None:
            argv += ["--config", str(cfg_dir / f"{self.config}.cfg")]
        return argv + list(self.args) + ["--seed", str(seed), "--out", str(out)]


def _verdicts_pass() -> list[Op]:
    ops = []
    for cfg in CONFIGS:
        for cmd in ("check-einstein", "check-extremal"):
            ops.append(Op(f"{cmd}/{cfg}", cmd, cfg, ("--samples", "10")))
    for cfg in CONFIGS:
        if cfg == "poly_half_1":
            continue
        ops.append(Op(f"curvature/{cfg}", "curvature", cfg, ("--samples", "20")))
        ops.append(Op(f"curvature-csv/{cfg}", "curvature", cfg,
                      ("--samples", "20", "--format", "csv")))
    for cfg in ("disc_half", "disc_1", "disc_2", "poly_1_2"):
        ops.append(Op(f"report/{cfg}", "report", cfg,
                      ("--samples", "10", "--truncation", "6")))
    return ops


def _diastasis_pass() -> list[Op]:
    # Ops cost 0.07-0.5 s each on the reference machine, so the median op is
    # a sweep long enough to average out short host stalls.
    ops = [
        Op("diastasis/ball3_c2/T11", "diastasis", "ball3_c2", ("--truncation", "11")),
        Op("diastasis/ball3_c2/T12", "diastasis", "ball3_c2", ("--truncation", "12")),
        Op("diastasis/poly_1_2/T24", "diastasis", "poly_1_2", ("--truncation", "24")),
        Op("diastasis-csv/ball3_c2/T7", "diastasis", "ball3_c2",
           ("--truncation", "7", "--format", "csv"), out_dir=True),
        Op("diastasis-csv/ball3_c2/T8", "diastasis", "ball3_c2",
           ("--truncation", "8", "--format", "csv"), out_dir=True),
        Op("immersion-CH/fock2_c2/h1.5", "immersion", "fock2_c2",
           ("--target", "CH", "--h", "1.5", "--truncation", "16")),
        Op("immersion-CH/disc_1/h1.5", "immersion", "disc_1",
           ("--target", "CH", "--h", "1.5", "--truncation", "40")),
    ]
    for cfg, t in (("disc_half", 30), ("disc_1", 35), ("disc_2", 40)):
        ops.append(Op(f"diastasis/{cfg}/T{t}", "diastasis", cfg,
                      ("--truncation", str(t), "--h", "0.5,1,1.5")))
    for cfg, t in (("disc_1", 30), ("ball2_c2", 14), ("poly_1_2", 24),
                   ("cartan_1x3", 11), ("fock2_c2", 16)):
        ops.append(Op(f"immersion-CP/{cfg}", "immersion", cfg,
                      ("--target", "CP", "--h", "0.5,1,2", "--truncation", str(t))))
    return ops


def _fixtures_pass() -> list[Op]:
    return [Op("fixtures", "fixtures", None, ())]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # Seconds of --seconds per pass. It only turns --seconds into a pass
    # count, so every run on every machine executes the same ops. On a
    # 2-core x86_64 host a verdicts pass takes about 6 s and a diastasis pass
    # about 3 s; a fixtures op takes about 6 s, but gets 5 s so that a 20 s
    # run holds 4 ops and its median is not a single op.
    nominal_pass_s: float
    # Fresh-process set-ups per untraced run; setup_s is their median. Short
    # set-ups are noisier, so they are repeated more often.
    setups: int

    def passes(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.nominal_pass_s - 1e-9))

    def warmup_ops(self) -> list[Op]:
        """The first op of each distinct command shape, in pass order."""
        seen = {}
        for op in self.ops:
            seen.setdefault(op.shape, op)
        return list(seen.values())

    def configs(self) -> set[str]:
        return {op.config for op in self.ops if op.config is not None}

    def order(self, seed: int, pass_index: int) -> list[Op]:
        ops = list(self.ops)
        random.Random(f"{seed}:{pass_index}").shuffle(ops)
        return ops

    def op_seed(self, seed: int, op: Op) -> int:
        """The --seed a command receives: fixed per (workload seed, op)."""
        return random.Random(f"{seed}:{op.key}").randrange(1, 2**31)


WORKLOADS = {
    "verdicts": Workload("verdicts", tuple(_verdicts_pass()), 6.0, setups=5),
    "diastasis": Workload("diastasis", tuple(_diastasis_pass()), 3.0, setups=5),
    "fixtures": Workload("fixtures", tuple(_fixtures_pass()), 5.0, setups=3),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


_FORM_TARGET = {"euclidean": "C", "projective": "CP", "hyperbolic": "CH"}


def _arg(op: Op, flag: str, default: str) -> str:
    return op.args[op.args.index(flag) + 1] if flag in op.args else default


def _h_list(op: Op) -> list[float]:
    return [float(h) for h in _arg(op, "--h", "1").split(",")]


def expected_exit(op: Op) -> int:
    if op.command == "check-einstein":
        return 0 if is_einstein(op.config) else 2
    if op.command == "check-extremal":
        return 0 if tau_is_zero(op.config) else 2
    if op.command == "immersion":
        target = _arg(op, "--target", "CH")
        exists = all(immersion_answer(op.config, target, h) == "exists" for h in _h_list(op))
        return 0 if exists else 2
    return 0


def _check_rows(rows: list[dict]) -> str | None:
    for row in rows:
        det_c, det_d = float(row["det_closed"]), float(row["det_direct"])
        if abs(det_c - det_d) > 1e-8 * abs(det_d):
            return f"det identity off: {det_c} vs {det_d}"
        if abs(float(row["s_trace"]) - float(row["s_closed"])) > 1e-6:
            return "scalar identity off"
    return None


def _check_diastasis_verdicts(op: Op, verdicts: list[dict]) -> str | None:
    if len(verdicts) != 3 * len(_h_list(op)):
        return "wrong number of resolvability verdicts"
    for v in verdicts:
        want = immersion_answer(op.config, _FORM_TARGET[v["form"]], v["h"]) == "exists"
        if v["all_psd"] != want:
            return f"{v['form']} h={v['h']}: all_psd={v['all_psd']}, expected {want}"
    return None


def check_semantics(op: Op, out: Path, stdout: str) -> str | None:
    """Content check of a successful op's output; None when it is right."""
    if op.command == "fixtures":
        payload = json.loads(out.read_text())
        if not payload["all_passed"] or stdout.count("[PASS]") != 10:
            return "fixtures: not all 10 criteria PASS"
        return None
    if op.command == "curvature":
        text = out.read_text()
        if "csv" in op.args:
            rows = list(csv.DictReader(io.StringIO(text)))
        else:
            rows = json.loads(text)["rows"]
        want = int(_arg(op, "--samples", "50"))
        if len(rows) != want:
            return f"curvature: {len(rows)} rows, expected {want}"
        return _check_rows(rows)
    if op.command == "check-einstein":
        payload = json.loads(out.read_text())
        return None if payload["is_einstein"] == is_einstein(op.config) else "wrong is_einstein"
    if op.command == "check-extremal":
        payload = json.loads(out.read_text())
        return None if payload["is_extremal"] == tau_is_zero(op.config) else "wrong is_extremal"
    if op.command == "report":
        payload = json.loads(out.read_text())
        c = payload["curvature"]
        if (c["is_einstein"], c["is_extremal"], c["is_constant_scalar"]) != (
            is_einstein(op.config), tau_is_zero(op.config), tau_is_zero(op.config)
        ):
            return "report: wrong curvature verdicts"
        for item in payload["immersion"]:
            if item["answer"] != immersion_answer(op.config, item["target"], item["h"]):
                return f"report: wrong immersion answer for {item['target']} h={item['h']}"
        return _check_diastasis_verdicts(op, payload["diastasis"])
    if op.command == "immersion":
        payload = json.loads(out.read_text())
        for item in payload["verdicts"]:
            if item["answer"] != immersion_answer(op.config, item["target"], item["h"]):
                return f"immersion: wrong answer for {item['target']} h={item['h']}"
        return None
    if op.command == "diastasis":
        if op.out_dir:
            t = int(_arg(op, "--truncation", "10"))
            blocks = 3 * (t + 1) * (t + 2) // 2
            if len(list(out.glob("*.csv"))) != blocks:
                return "diastasis csv: wrong number of block files"
            out = out / "verdicts.json"
        return _check_diastasis_verdicts(op, json.loads(out.read_text())["verdicts"])
    return f"no check for command {op.command}"


def read_output(op: Op, out: Path) -> bytes | None:
    """The op's report bytes (a directory dump is read file by file)."""
    if op.out_dir:
        if not out.is_dir():
            return None
        parts = []
        for f in sorted(out.iterdir()):
            parts += [f.name.encode(), b"\0", f.read_bytes(), b"\0"]
        return b"".join(parts)
    return out.read_bytes() if out.is_file() else None
