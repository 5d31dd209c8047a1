"""JSON / CSV report assembly for the command-line front end.

All JSON is emitted with sorted keys and a versioned top-level ``schema``
field, so reruns with the same seed are byte identical.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .curvature import CurvatureReport, curvature_report
from .domains import HartogsSpec

SCHEMA_VERSION = "1"


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(text: str, out_path=None) -> None:
    if out_path is None:
        print(text, end="")
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def with_schema(payload: dict) -> dict:
    payload = dict(payload)
    payload["schema"] = SCHEMA_VERSION
    return payload


def point_columns(spec: HartogsSpec, coords) -> dict:
    """The columns of one row of a coordinate stack, fiber first."""
    cols = {}
    d0 = spec.fiber_dim
    for k, z in enumerate(coords[:d0]):
        cols[f"z0_{k}_re"] = float(z.real)
        cols[f"z0_{k}_im"] = float(z.imag)
    for k, z in enumerate(coords[d0:]):
        cols[f"z_{k}_re"] = float(z.real)
        cols[f"z_{k}_im"] = float(z.imag)
    return cols


def curvature_rows(spec: HartogsSpec, points) -> list[dict]:
    """One row per sample point: coordinates plus closed/direct invariants."""
    return report_rows(spec, curvature_report(spec, points))


def report_rows(spec: HartogsSpec, rep: CurvatureReport, count: int | None = None) -> list[dict]:
    """The rows of a curvature report, or of its first ``count`` points."""
    rows = []
    for r, coords in enumerate(rep.coords[:count]):
        row = point_columns(spec, coords)
        row.update(
            det_closed=float(rep.det_closed[r]),
            det_direct=float(rep.det_direct[r]),
            s_trace=float(rep.scalar_trace[r]),
            s_closed=float(rep.scalar_closed[r]),
            einstein_residual=float(rep.einstein_residual[r]),
            extremal_residual=float(rep.extremal_residual[r]),
        )
        rows.append(row)
    return rows


def render_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def spec_summary(spec: HartogsSpec) -> dict:
    base = spec.base
    return {
        "kind": base.kind.value,
        "dims": list(base.dims),
        "mu": list(base.exponents),
        "shape": list(base.shape) if base.shape else None,
        "fiber_dim": spec.fiber_dim,
        "scale_h": spec.scale,
        "genus": [g if g is None else float(g) for g in base.genus],
        "einstein_constants": [float(c) for c in base.einstein_constants],
    }


def resolvability_payload(verdict) -> dict:
    failure = None
    if verdict.first_failure is not None:
        failure = {
            "i": verdict.first_failure.total_degree,
            "sigma": verdict.first_failure.fiber_degree,
            "min_eig": verdict.first_failure.min_eigenvalue,
        }
    return {
        "form": verdict.form.value,
        "h": verdict.h,
        "truncation": verdict.truncation_degree,
        "all_psd": verdict.all_psd,
        "rank_lower_bound": verdict.rank_lower_bound,
        "first_failure": failure,
    }


def block_csv(block) -> str:
    """CSV dump of one coefficient block: row/column indices and the entry.

    Blocks are diagonal, so there is one row per diagonal entry. Rows are
    formatted directly; :func:`render_csv` would give the same bytes, since
    no field needs quoting and floats print as ``str``.
    """
    lines = ["row_fiber,row_base,col_fiber,col_base,value"]
    bases = ["|".join(map(str, alpha)) for alpha in block.base_indices]
    values = iter(block.diagonal.tolist())
    for nu in block.fiber_indices:
        fiber = "|".join(map(str, nu))
        lines += [f"{fiber},{base},{fiber},{base},{next(values)}" for base in bases]
    return "\n".join(lines) + "\n"
