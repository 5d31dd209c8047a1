"""Self-test of the benchmark at a tiny run length (about two minutes).

    python3 bench/selftest.py

For every workload it runs ``run.py`` untraced and traced with
``--seconds 1`` (one pass each) and checks that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is printed,
  with its unit, and nothing else;
* each layer does work (calls > 0) where the layer map says it should, and
  none where the map predicts zero;
* the wrappers are transparent: every traced command writes the same report
  bytes as its untraced run (``correct`` stays true) and fails exactly when
  its untraced run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Commands hitting the known verdict-chain defect on a non-Einstein base
#: (both checks exit 1); they must show up as failures, nothing else may.
DEFECT_CONFIG = "poly_half_1"

# (workload, metric) -> required per-op value: "positive", or an exact count.
LAYER_WORK = {
    "verdicts": {
        "domains.sample_points.calls": "positive",
        "domains.phi_with_derivatives.calls": "positive",
        "curvature.metric_matrix.calls": "positive",
        "curvature.extremal_check.metric_per_value": "positive",
        "wirtinger.conjugate_jacobian.calls": "positive",
        "hermitian.solve_hermitian.calls": "positive",
        "series.block.calls": "positive",
        "immersion.decide.calls": "positive",
        "reporting.write_text.bytes": "positive",
        "wirtinger.wirtinger_hessian.calls": 0,
        "fixtures.criterion_02_ms": 0,
    },
    "diastasis": {
        "hermitian.psd_check.calls": "positive",
        "hermitian.psd_check.max_dim": "positive",
        "series.block.calls": "positive",
        "series.block.entries": "positive",
        "immersion.cross_check.calls": "positive",
        "reporting.block_csv.self_ms": "positive",
        "reporting.write_text.bytes": "positive",
        "curvature.metric_matrix.calls": 0,
        "domains.sample_points.calls": 0,
        "hermitian.solve_hermitian.calls": 0,
    },
    "fixtures": {
        "curvature.metric_matrix.calls": 37050,
        "wirtinger.wirtinger_hessian.calls": 260,
        "curvature.ricci_numeric.metric_per_value": "positive",
        "wirtinger.mixed_partial.calls": "positive",
        "domains.hartogs_potential.calls": "positive",
        "hermitian.psd_check.calls": "positive",
        "series.block.calls": "positive",
        "series.cross_coefficient_audit.self_ms": "positive",
        "series.series_partial_sum.self_ms": "positive",
        **{f"fixtures.criterion_{i:02d}_ms": "positive" for i in range(1, 11)},
    },
}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: printed metrics differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(LAYER_WORK)
    for workload, expected in LAYER_WORK.items():
        plain = bench(workload, 0)
        check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        assert plain["correct"], f"{workload}: an untraced output is wrong"
        ops = WORKLOADS[workload].ops
        share = sum(op.config == DEFECT_CONFIG for op in ops) / len(ops)
        assert plain["failed"] / plain["attempted"] == share, f"{workload}: error rate is not {share}"
        for name, m in plain["metrics"].items():
            assert m["value"] > 0, f"{workload}: end-to-end {name} reads 0"

        traced = bench(workload, 1)
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        assert traced["correct"], f"{workload}: traced output differs from untraced"
        assert traced["failed"] == 2 * plain["failed"], f"{workload}: tracing changed failures"
        values = {name: m["value"] for name, m in traced["metrics"].items()}
        for name, want in expected.items():
            if want == "positive":
                assert values[name] > 0, f"{workload}: {name} = {values[name]}, expected > 0"
            else:
                assert values[name] == want, f"{workload}: {name} = {values[name]}, expected {want}"
        print(f"{workload}: ok ({plain['attempted']} ops, {plain['failed']} failed; "
              f"trace overhead {values['trace.overhead_frac']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
