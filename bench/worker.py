"""One workload in one fresh process: set-up, timed passes, optional trace.

Started by ``run.py``; not meant to be run by hand. Roles:

* ``setup``: import, write configs, warm up each command shape, report the
  set-up time and exit;
* ``run``: the same set-up, then the timed passes with tracing off;
* ``trace``: set-up, timed passes untraced, the same passes traced, then the
  scaling probes.

The result goes to ``--result`` as JSON. Command output is captured in
process, so nothing the commands print reaches this process's stdout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import hartogs.cli
from hartogs import (
    BaseDomainSpec,
    Form,
    HartogsSpec,
    resolvability,
    sample_points,
    verdicts,
)

from tracing import Tracer
from workloads import WORKLOADS, Op, Workload, check_semantics, config_text, expected_exit, read_output


def clock() -> float:
    """Monotonic clock shared with the parent, which stamps the spawn time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs ops through ``hartogs.cli.main`` and checks every output."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.cfg_dir = workdir / "configs"
        self.out_dir = workdir / "out"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted(workload.configs()):
            (self.cfg_dir / f"{name}.cfg").write_text(config_text(name))
        self.reference: dict[tuple, bytes] = {}
        self.problems: list[str] = []

    def run(self, op: Op) -> tuple[float, str]:
        """Execute one op; returns (wall seconds, 'ok' | 'error' | 'wrong')."""
        out = self.out_dir / op.key.replace("/", "_")
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
        argv = op.argv(self.cfg_dir, out, self.workload.op_seed(self.seed, op))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = clock()
            try:
                code = hartogs.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback escaping the CLI is an error
                code = None
                print(f"{type(exc).__name__}: {exc}", file=stderr)
            wall = clock() - start
        return wall, self._verdict(op, argv, code, out, stdout.getvalue(), stderr.getvalue())

    def _verdict(self, op, argv, code, out, stdout, stderr) -> str:
        want = expected_exit(op)
        if code not in (0, 2):
            self._note(f"{op.key}: exit {code} (expected {want}): {stderr.strip()[-200:]}")
            return "error"
        if code != want:
            self._note(f"{op.key}: exit {code}, expected {want}")
            return "wrong"
        data = read_output(op, out)
        if data is None:
            self._note(f"{op.key}: no output written")
            return "wrong"
        key = tuple(argv)
        if key not in self.reference:
            problem = check_semantics(op, out, stdout)
            if problem is not None:
                self._note(f"{op.key}: {problem}")
                return "wrong"
            self.reference[key] = data
        elif data != self.reference[key]:
            self._note(f"{op.key}: report bytes differ from the first run")
            return "wrong"
        return "ok"

    def _note(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def passes(self, count: int) -> list[tuple[str, float, str]]:
        records = []
        for p in range(count):
            for op in self.workload.order(self.seed, p):
                wall, status = self.run(op)
                records.append((op.key, wall, status))
        return records


def calib_ms(reps: int = 5) -> float:
    """Median wall time of a fixed reference loop (pure Python + small numpy)."""
    a = np.arange(16.0).reshape(4, 4) + 20.0 * np.eye(4)
    times = []
    for _ in range(reps):
        start = clock()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(500):
            np.linalg.solve(a, a[0])
        times.append((clock() - start) * 1e3)
    return statistics.median(times)


def probes(seed: int) -> dict[str, float]:
    """Scaling series: resolvability over truncation, verdicts over samples."""
    out = {}
    ball3 = HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2)
    for t in (6, 10, 14, 18):
        start = clock()
        resolvability(Form.PROJECTIVE, ball3, h=1.0, truncation_degree=t)
        out[f"series.resolvability.T{t}_ms"] = (clock() - start) * 1e3
    disc2 = HartogsSpec(BaseDomainSpec.disc(2.0), 1)
    for n in (10, 40, 160):
        pts = sample_points(disc2, n, seed=seed, margin_frac=0.1, min_margin=0.05)
        start = clock()
        verdicts(disc2, pts)
        out[f"curvature.verdicts.n{n}_ms"] = (clock() - start) * 1e3
    return out


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def meta(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.workdir)
    warmup = [runner.run(op) for op in workload.warmup_ops()]
    result = {
        "setup_s": clock() - args.spawned_at,
        "warmup": [status for _, status in warmup],
    }
    if args.role != "setup":
        calib_before = calib_ms()
        if args.role == "run":
            count = workload.passes(args.seconds)
            result["records"] = runner.passes(count)
        else:
            count = workload.passes(args.seconds / 2)
            result["records"] = runner.passes(count)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.passes(count)
            finally:
                tracer.uninstall()
            result["traced_records"] = traced
            result["layers"] = tracer.layer_metrics(len(traced))
            result["spans"] = tracer.span_count()
            result["layers"].update(probes(args.seed))
            if args.spans is not None:
                tracer.save(args.spans)
        calib_after = calib_ms()
        result["passes"] = count
        result["calib_ms"] = [calib_before, calib_after]
        result["meta"] = meta(args.seed)
    result["problems"] = runner.problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
