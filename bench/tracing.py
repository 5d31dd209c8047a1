"""Outside-in tracing of the ``hartogs`` package.

``Tracer.install`` wraps every public module-level function of every loaded
``hartogs`` module (except the scalar helpers in ``UNTRACED``) and patches the wrapper into *each* module namespace that
holds the function, so calls resolved through another module's globals
(``hartogs.fixtures.metric_matrix`` as well as
``hartogs.curvature.metric_matrix``) are recorded too. Nothing in the
package changes; ``uninstall`` puts the originals back.

A span is (id, parent id, name, start, end). Spans stay in memory, packed in
one ``array('d')``, until the run ends; ``layer_metrics`` turns them into the
per-op layer metrics and ``save`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "hartogs"
_FIELDS = 5  # id, parent, name index, start, end

# Oracles whose metric evaluations are counted per returned value.
ORACLES = ("curvature.ricci_numeric", "curvature.extremal_check")

# Per-entry scalar helpers, left unwrapped: a diastasis op calls them ~10^5
# times for a few microseconds each, so a span per call would double their
# cost and hold millions of spans. Their time is self time of the caller
# (series.block, hermitian.psd_check).
UNTRACED = frozenset({
    "series.grade_indices",
    "series.log_deriv",
    "series.multi_factorial",
    "series.pochhammer",
    "series.power_deriv",
    "hermitian.default_psd_tolerance",
})


def _hook_sample_points(counters, args, kwargs, result):
    counters["domains.sample_points.points"] += len(result)


def _hook_psd_check(counters, args, kwargs, result):
    dim = (args[0] if args else kwargs["m"]).dim
    counters["hermitian.psd_check.entries"] += dim
    counters["hermitian.psd_check.max_dim"] = max(counters["hermitian.psd_check.max_dim"], dim)


def _hook_block(counters, args, kwargs, result):
    counters["series.block.entries"] += result.matrix.dim


def _hook_write_text(counters, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counters["reporting.write_text.bytes"] += len(text.encode("utf-8"))


HOOKS = {
    "domains.sample_points": _hook_sample_points,
    "hermitian.psd_check": _hook_psd_check,
    "series.block": _hook_block,
    "reporting.write_text": _hook_write_text,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def span_count(self) -> int:
        return self._next_id

    def _wrap(self, fn, name: str):
        name_index = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack = self._stack
        record = self.spans.extend
        clock = time.perf_counter
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, name_index, start, end))
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(prefix))
        ]
        wrappers = {}
        for module in modules:
            for obj in vars(module).values():
                if (
                    inspect.isfunction(obj)
                    and not obj.__name__.startswith("_")
                    and obj.__module__.startswith(prefix)
                    and obj not in wrappers
                ):
                    span_name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    if span_name not in UNTRACED:
                        wrappers[obj] = self._wrap(obj, span_name)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def _table(self):
        rows = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, _FIELDS)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        parent = rows[:, 1].astype(np.int64)
        name = rows[:, 2].astype(np.int64)
        dur = rows[:, 4] - rows[:, 3]
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return parent, name, dur, dur - child

    def _oracle_of(self, parent, name):
        """Index of the nearest enclosing oracle name per span, or -1."""
        own = np.full(len(name), -1, dtype=np.int64)
        for oracle in ORACLES:
            if oracle in self.names:
                i = self.names.index(oracle)
                own[name == i] = i
        label = own.copy()
        cursor = parent.copy()
        pending = (label < 0) & (cursor >= 0)
        while pending.any():
            label[pending] = own[cursor[pending]]
            cursor[pending] = parent[cursor[pending]]
            pending = (label < 0) & (cursor >= 0)
        return label

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls and self time of every span name, plus layer ratios."""
        parent, name, dur, self_time = self._table()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        first = np.full(k, np.iinfo(np.int64).max)
        np.minimum.at(first, name, np.arange(len(name)))
        index = {n: i for i, n in enumerate(self.names)}

        out = {}
        for n, i in index.items():
            out[f"{n}.calls"] = calls[i] / ops
            out[f"{n}.self_ms"] = own[i] * 1e3 / ops
        for key, value in self.counters.items():
            out[key] = value if key.endswith(".max_dim") else value / ops

        mm = index.get("curvature.metric_matrix")
        out["curvature.metric_matrix.us_per_call"] = (
            total[mm] * 1e6 / calls[mm] if mm is not None and calls[mm] else 0.0
        )
        points = self.counters.get("domains.sample_points.points", 0.0)
        sp = index.get("domains.sample_points")
        out["domains.sample_points.us_per_point"] = (
            total[sp] * 1e6 / points if sp is not None and points else 0.0
        )
        label = self._oracle_of(parent, name)
        for oracle in ORACLES:
            oi = index.get(oracle)
            values = float(calls[oi]) if oi is not None else 0.0
            inner = 0.0
            if values and mm is not None:
                inner = float(np.count_nonzero((name == mm) & (label == oi)))
            out[f"{oracle}.metric_per_value"] = inner / values if values else 0.0
        criteria = sorted(
            (first[i], i) for n, i in index.items()
            if n.startswith("fixtures.criterion_") and calls[i]
        )
        for number, (_, i) in enumerate(criteria, start=1):
            out[f"fixtures.criterion_{number:02d}_ms"] = total[i] * 1e3 / ops
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            spans=np.frombuffer(self.spans, dtype=np.float64).reshape(-1, _FIELDS),
            names=np.array(self.names),
        )


# Per-op layer metrics the benchmark prints in a traced run: (name, unit).
# A layer that does no work on a workload reads 0 there.
LAYER_METRICS = [
    ("domains.sample_points.calls", "count"),
    ("domains.sample_points.us_per_point", "us"),
    ("domains.phi_with_derivatives.calls", "count"),
    ("domains.hartogs_potential.calls", "count"),
    ("curvature.metric_matrix.calls", "count"),
    ("curvature.metric_matrix.us_per_call", "us"),
    ("curvature.metric_matrix.self_ms", "ms"),
    ("curvature.ricci_numeric.self_ms", "ms"),
    ("curvature.ricci_numeric.metric_per_value", "count"),
    ("curvature.extremal_check.self_ms", "ms"),
    ("curvature.extremal_check.metric_per_value", "count"),
    ("curvature.ricci_closed.self_ms", "ms"),
    ("curvature.scalar_curvature.self_ms", "ms"),
    ("curvature.det_closed.self_ms", "ms"),
    ("curvature.verdicts.self_ms", "ms"),
    ("wirtinger.wirtinger_hessian.calls", "count"),
    ("wirtinger.wirtinger_hessian.self_ms", "ms"),
    ("wirtinger.conjugate_jacobian.calls", "count"),
    ("wirtinger.conjugate_jacobian.self_ms", "ms"),
    ("wirtinger.mixed_partial.calls", "count"),
    ("wirtinger.mixed_partial.self_ms", "ms"),
    ("hermitian.psd_check.calls", "count"),
    ("hermitian.psd_check.self_ms", "ms"),
    ("hermitian.psd_check.max_dim", "count"),
    ("hermitian.psd_check.entries", "count"),
    ("hermitian.eigenvalues.calls", "count"),
    ("hermitian.eigenvalues.self_ms", "ms"),
    ("hermitian.solve_hermitian.calls", "count"),
    ("hermitian.solve_hermitian.self_ms", "ms"),
    ("series.block.calls", "count"),
    ("series.block.self_ms", "ms"),
    ("series.block.entries", "count"),
    ("series.resolvability.self_ms", "ms"),
    ("series.cross_coefficient_audit.self_ms", "ms"),
    ("series.series_partial_sum.self_ms", "ms"),
    ("immersion.cross_check.calls", "count"),
    ("immersion.cross_check.self_ms", "ms"),
    ("immersion.decide.calls", "count"),
    ("reporting.curvature_rows.self_ms", "ms"),
    ("reporting.to_json.self_ms", "ms"),
    ("reporting.render_csv.self_ms", "ms"),
    ("reporting.block_csv.self_ms", "ms"),
    ("reporting.write_text.bytes", "bytes"),
    ("reporting.write_text.self_ms", "ms"),
    ("config.parse_config.self_ms", "ms"),
    ("cli.build_parser.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
] + [(f"fixtures.criterion_{i:02d}_ms", "ms") for i in range(1, 11)]
