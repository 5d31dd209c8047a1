"""Benchmark of the ``hartogs`` command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Each op is one in-process ``hartogs.cli.main(argv)`` call on generated
configs, with ``--out`` inside a scratch directory. The load is a closed loop
with one client: the next command starts when the previous one returns. Each
workload runs in its own fresh worker process with BLAS pinned to one thread.

``--trace 0`` starts workers one after another: all but the last only set
up, the last sets up and runs the timed passes. It prints the end-to-end
metrics; ``setup_s`` is the median of the set-ups (5, or 3 for ``fixtures``). ``--trace 1`` starts one
worker that runs the passes untraced, then traced, then the scaling probes,
and prints the per-layer metrics. The last stdout line is one JSON object;
the lines above it are the same numbers for a reader.

Exit status is 0 with a result, 2 when the source tree or a worker is
missing or fails (no result is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: BLAS threads pinned in every worker (the reference machine has 2 cores).
BLAS_THREADS = "1"
#: Each run must end within this many seconds, set-up included.
DEADLINE_S = 170.0
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

PROBES = [
    ("series.resolvability.T6_ms", "ms"),
    ("series.resolvability.T10_ms", "ms"),
    ("series.resolvability.T14_ms", "ms"),
    ("series.resolvability.T18_ms", "ms"),
    ("curvature.verdicts.n10_ms", "ms"),
    ("curvature.verdicts.n40_ms", "ms"),
    ("curvature.verdicts.n160_ms", "ms"),
]
PER_LAYER = LAYER_METRICS + PROBES + [
    ("trace.overhead_frac", "fraction"),
    ("machine.calib_ms", "ms"),
]
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, role: str, workdir: Path, deadline: float) -> dict:
    result = workdir / f"result-{role}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
        "--workdir", str(workdir / "work"), "--result", str(result),
    ]
    if role == "trace":
        cmd += ["--spans", str(ROOT / ".bench_out" / f"spans-{args.workload}.npz")]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned-at", repr(spawned)]
    proc = subprocess.run(
        cmd, env=worker_env(), cwd=ROOT, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with status {proc.returncode}")
    return json.loads(result.read_text())


def percentile(ordered: list[float], q: float) -> float:
    """Percentile of sorted values, interpolating between closest ranks."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    if lo == pos:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def latency(records) -> list[float]:
    """Op wall times; a failed op counts as missing every latency limit."""
    return sorted(wall if status == "ok" else math.inf for _, wall, status in records)


def ops_per_s(records) -> float:
    ok = sum(1 for _, _, status in records if status == "ok")
    return ok / sum(wall for _, wall, _ in records)


def source_id() -> dict:
    """Commit (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def end_to_end(setups: list[dict], run: dict) -> tuple[dict, dict]:
    records = run["records"]
    lat = latency(records)
    metrics = {
        "ops_per_s": ops_per_s(records),
        "op_p50_s": percentile(lat, 50),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    extra = {
        "op_count": len(records),
        "error_rate": sum(1 for r in records if r[2] != "ok") / len(records),
        "setup_samples_s": [s["setup_s"] for s in setups],
    }
    if len(records) >= 10 * TAIL_SAMPLES:
        extra["op_p90_s"] = percentile(lat, 90)
    return metrics, extra


def per_layer(run: dict) -> dict:
    layers = run["layers"]
    untraced = ops_per_s(run["records"])
    traced = ops_per_s(run["traced_records"])
    values = {name: float(layers.get(name, 0.0)) for name, _ in LAYER_METRICS + PROBES}
    values["trace.overhead_frac"] = 1.0 - traced / untraced if untraced else 0.0
    values["machine.calib_ms"] = statistics.mean(run["calib_ms"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hartogs" / "__init__.py").is_file():
        print(f"error: no hartogs source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runs = [run_worker(args, "trace", scratch, deadline)]
        else:
            setups = WORKLOADS[args.workload].setups
            runs = [run_worker(args, "setup", scratch, deadline) for _ in range(setups - 1)]
            runs.append(run_worker(args, "run", scratch, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    run = runs[-1]
    records = run["records"] + run.get("traced_records", [])
    statuses = [r[2] for r in records]
    warmups = [s for r in runs for s in r["warmup"]]
    problems = sorted({p for r in runs for p in r["problems"]})
    if args.trace:
        metrics, units = per_layer(run), dict(PER_LAYER)
    else:
        metrics, extra = end_to_end(runs, run)
        units = dict(END_TO_END)

    info = dict(run["meta"], **source_id(), workload=args.workload,
                loop="closed, 1 client", passes=run["passes"])
    print(f"# {json.dumps(info, sort_keys=True)}")
    if args.trace:
        print(f"# spans {run['spans']} over {len(run['traced_records'])} traced ops, "
              f"after {len(run['records'])} untraced ops; peak RSS {run['peak_rss_mb']:.1f} MB")
    for text in problems:
        print(f"# problem: {text}")
    if not args.trace:
        print(f"# ops {extra['op_count']}, error_rate {extra['error_rate']:.4f} fraction, "
              f"setup samples {[round(s, 4) for s in extra['setup_samples_s']]} s, "
              f"machine.calib_ms {[round(c, 3) for c in run['calib_ms']]}")
        if "op_p90_s" in extra:
            print(f"# op_p90_s {extra['op_p90_s']:.6f} s (n={extra['op_count']})")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    failed = sum(1 for s in statuses if s != "ok")
    print(json.dumps({
        "correct": "wrong" not in statuses + warmups,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
