"""Canned verification suite: every acceptance criterion as a callable check.

``run_acceptance`` executes all criteria and assembles a deterministic JSON
payload (pass/fail per criterion plus the numeric evidence). Wall-clock
budgets are evaluated and reported as booleans only, so reruns with the same
seed produce byte-identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .curvature import (
    curvature_report,
    extremal_check,
    ricci_numeric,
    verdicts,
)
from .domains import BaseDomainSpec, HartogsSpec, hartogs_potential, phi_stack, sample_points
from .immersion import table_one
from .series import (
    Form,
    blocks,
    cross_coefficient_audit,
    resolvability,
    series_partial_sum,
)

DEFAULT_SEED = 42

_BASES = (
    ("disc_mu_0.5", BaseDomainSpec.disc(0.5)),
    ("disc_mu_1", BaseDomainSpec.disc(1.0)),
    ("disc_mu_2", BaseDomainSpec.disc(2.0)),
    ("ball2_mu_1", BaseDomainSpec.ball(2, 1.0)),
    ("polydisc_mu_1_2", BaseDomainSpec.polydisc((1.0, 2.0))),
    ("fock1_mu_1", BaseDomainSpec.fock(1, 1.0)),
)

EXPECTED_TABLE_ONE = {
    "A": {
        "C_finite": "not_exists",
        "C_infinite": "exists",
        "CP_finite": "not_exists",
        "CP_infinite": "exists",
        "CH_finite": "not_exists",
        "CH_infinite": "unknown",
    },
    "B": {
        "C_finite": "not_exists",
        "C_infinite": "not_exists",
        "CP_finite": "not_exists",
        "CP_infinite": "exists",
        "CH_finite": "not_exists",
        "CH_infinite": "not_exists",
    },
    "C": {
        "C_finite": "not_exists",
        "C_infinite": "exists",
        "CP_finite": "not_exists",
        "CP_infinite": "exists",
        "CH_finite": "not_exists",
        "CH_infinite": "exists",
    },
}


#: The grid entry of the unit ball in C^2, disc(1) x C, whose metric is
#: Kahler-Einstein with Ric = -3 g and scalar curvature -6.
_BALL_ENTRY = "disc_mu_1_d0_1"


def spec_grid() -> list[tuple[str, HartogsSpec]]:
    return [
        (f"{name}_d0_{d0}", HartogsSpec(base, d0))
        for name, base in _BASES
        for d0 in (1, 2)
    ]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:02d} [{status}] {self.title}"


def _criterion(cid, title, budget_seconds, body) -> CriterionResult:
    start = time.perf_counter()
    passed, details = body()
    elapsed = time.perf_counter() - start
    runtime_ok = budget_seconds is None or elapsed < budget_seconds
    details = dict(details)
    if budget_seconds is not None:
        details["runtime_ok"] = runtime_ok
        details["runtime_budget_seconds"] = budget_seconds
    return CriterionResult(
        cid=cid,
        title=title,
        passed=bool(passed and runtime_ok),
        details=details,
        elapsed=elapsed,
    )


def criterion_determinant_identity(seed=DEFAULT_SEED) -> CriterionResult:
    def body():
        worst = 0.0
        worst_spec = None
        for name, spec in spec_grid():
            pts = sample_points(spec, 100, seed=seed)
            rep = curvature_report(spec, pts, include_extremal=False)
            rel = float(np.max(np.abs(rep.det_closed - rep.det_direct) / rep.det_direct))
            if rel > worst:
                worst, worst_spec = rel, name
        return worst <= 1e-8, {
            "max_relative_error": worst,
            "worst_spec": worst_spec,
            "tolerance": 1e-8,
            "points_per_spec": 100,
        }

    return _criterion(1, "determinant identity, closed vs direct", 5.0, body)


def criterion_ricci_identity(seed=DEFAULT_SEED) -> CriterionResult:
    def body():
        worst = 0.0
        worst_spec = None
        for name, spec in spec_grid():
            pts = sample_points(spec, 20, seed=seed, min_margin=0.05)
            rep = curvature_report(spec, pts, include_extremal=False)
            ric = ricci_numeric(spec, pts)
            gap = float(np.max(np.abs(ric - rep.ricci_closed)))
            if gap > worst:
                worst, worst_spec = gap, name
            if name == _BALL_ENTRY:
                einstein_gap = float(np.max(np.abs(ric + 3.0 * rep.metric)))
        ok = worst <= 1e-3 and einstein_gap <= 1e-3
        return ok, {
            "max_entrywise_gap": worst,
            "worst_spec": worst_spec,
            "einstein_constant_gap": einstein_gap,
            "tolerance": 1e-3,
            "points_per_spec": 20,
        }

    return _criterion(2, "Ricci tensor, closed vs Taylor-mode jets", 30.0, body)


def criterion_scalar_identity(seed=DEFAULT_SEED) -> CriterionResult:
    def body():
        def scalars(spec, pts):
            rep = curvature_report(spec, pts, include_extremal=False)
            return rep.scalar_trace, rep.scalar_closed

        worst = 0.0
        for name, spec in spec_grid():
            trace, closed = scalars(spec, sample_points(spec, 25, seed=seed))
            worst = max(worst, float(np.max(np.abs(trace - closed))))
            if name == _BALL_ENTRY:
                const_gap = float(np.max(np.abs(closed + 6.0)))
        disc2 = HartogsSpec(BaseDomainSpec.disc(2.0), 1)
        z = 0.3
        phi_val = float(phi_stack(disc2.base, [[z]])[0])
        _, closed = scalars(disc2, [[0.0, z], [math.sqrt(phi_val / 2.0), z]])
        s_zero, s_half = closed.tolist()
        ok = (
            worst <= 1e-6
            and const_gap <= 1e-6
            and abs(s_zero + 5.0) <= 1e-6
            and abs(s_half + 5.5) <= 1e-6
        )
        return ok, {
            "max_trace_vs_closed": worst,
            "disc_mu1_constant_gap": const_gap,
            "disc_mu2_at_zero_fiber": s_zero,
            "disc_mu2_at_half_margin": s_half,
            "tolerance": 1e-6,
        }

    return _criterion(3, "scalar curvature, trace pairing vs closed formula", None, body)


def criterion_equivalence_chain(seed=DEFAULT_SEED) -> CriterionResult:
    def body():
        details = {}
        b2 = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        pts = sample_points(b2, 12, seed=seed, margin_frac=0.1, min_margin=0.05)
        v = verdicts(b2, pts)
        details["disc_mu1"] = {
            "is_einstein": v.is_einstein,
            "is_extremal": v.is_extremal,
            "is_constant_scalar": v.is_constant_scalar,
        }
        ok = v.is_einstein and v.is_extremal and v.is_constant_scalar
        witness_point = [[0.3 + 0.2j, 0.25 - 0.1j]]
        for name, base in (("disc_mu2", BaseDomainSpec.disc(2.0)), ("fock1_mu_1", BaseDomainSpec.fock(1, 1.0))):
            spec = HartogsSpec(base, 1)
            pts = sample_points(spec, 12, seed=seed, margin_frac=0.1, min_margin=0.05)
            v = verdicts(spec, pts)
            chk = extremal_check(spec, witness_point)
            residual = float(chk.residual[0])
            witness_gap = float(abs(chk.fiber_component[0] - chk.witness_closed[0]))
            details[name] = {
                "is_einstein": v.is_einstein,
                "is_extremal": v.is_extremal,
                "is_constant_scalar": v.is_constant_scalar,
                "extremal_residual": residual,
                "witness_gap": witness_gap,
            }
            ok = ok and not (v.is_einstein or v.is_extremal or v.is_constant_scalar)
            ok = ok and residual > 1e-3 and witness_gap <= 1e-3
        # tau = 0 without an Einstein base: constant scalar and extremal only
        pd = HartogsSpec(BaseDomainSpec.polydisc((0.5, 1.0)), 1)
        pts = sample_points(pd, 12, seed=seed, margin_frac=0.1, min_margin=0.05)
        v = verdicts(pd, pts)
        details["polydisc_mu_0.5_1"] = {
            "is_einstein": v.is_einstein,
            "is_extremal": v.is_extremal,
            "is_constant_scalar": v.is_constant_scalar,
            "einstein_residual": v.max_einstein_residual,
        }
        ok = ok and not v.is_einstein and v.is_extremal and v.is_constant_scalar
        return ok, details

    return _criterion(4, "Einstein / extremal / constant-scalar equivalence", None, body)


def criterion_hyperbolic_signs() -> CriterionResult:
    def body():
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        v_half = resolvability(Form.HYPERBOLIC, spec, h=0.5, truncation_degree=10)
        v_one = resolvability(Form.HYPERBOLIC, spec, h=1.0, truncation_degree=10)
        v_mid = resolvability(Form.HYPERBOLIC, spec, h=1.5, truncation_degree=10)
        failure_ok = (
            not v_mid.all_psd
            and v_mid.first_failure is not None
            and v_mid.first_failure.total_degree == 2
            and v_mid.first_failure.fiber_degree == 2
            and abs(v_mid.first_failure.min_eigenvalue + 1.5) <= 1e-10
        )
        ok = v_half.all_psd and v_one.all_psd and v_one.rank_lower_bound == 2 and failure_ok
        return ok, {
            "h_0.5_all_psd": v_half.all_psd,
            "h_1_all_psd": v_one.all_psd,
            "h_1_rank": v_one.rank_lower_bound,
            "h_1.5_first_failure": None
            if v_mid.first_failure is None
            else {
                "i": v_mid.first_failure.total_degree,
                "sigma": v_mid.first_failure.fiber_degree,
                "min_eig": v_mid.first_failure.min_eigenvalue,
            },
        }

    return _criterion(5, "hyperbolic-form sign phenomena on the disc", 2.0, body)


def criterion_projective_blocks() -> CriterionResult:
    def body():
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        all_psd = True
        worst_rel = 0.0
        for h in (0.3, 1.0, 2.7):
            v = resolvability(Form.PROJECTIVE, spec, h=h, truncation_degree=10)
            all_psd = all_psd and v.all_psd
            for b in blocks(Form.PROJECTIVE, spec, 10, v.h):
                i, sigma = b.total_degree, b.fiber_degree
                if i == 0:
                    continue
                entry = float(b.diagonal[0])
                factor = math.exp(
                    math.lgamma(h + sigma) - math.lgamma(h) + math.lgamma(sigma + 1)
                )
                # the disc's base entry, (h + sigma)_k k!, by lgamma too
                k = i - sigma
                base = math.exp(
                    math.lgamma(h + sigma + k) - math.lgamma(h + sigma) + math.lgamma(k + 1)
                )
                expected = factor * base
                rel = abs(entry - expected) / max(abs(expected), 1e-300)
                worst_rel = max(worst_rel, rel)
        ok = all_psd and worst_rel <= 1e-10
        return ok, {
            "all_psd": all_psd,
            "max_factorization_rel_error": worst_rel,
            "h_values": [0.3, 1.0, 2.7],
            "tolerance": 1e-10,
        }

    return _criterion(6, "projective blocks PSD and Gamma-factorization", None, body)


def criterion_euclidean_rank_growth() -> CriterionResult:
    def body():
        disc = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        fock = HartogsSpec(BaseDomainSpec.fock(1, 1.0), 1)
        disc_v = resolvability(Form.EUCLIDEAN, disc, truncation_degree=10)
        fock_v = resolvability(Form.EUCLIDEAN, fock, truncation_degree=10)
        ranks = [
            resolvability(Form.EUCLIDEAN, disc, truncation_degree=t).rank_lower_bound
            for t in (4, 6, 8, 10)
        ]
        strictly_increasing = all(b > a for a, b in zip(ranks, ranks[1:]))
        ok = disc_v.all_psd and fock_v.all_psd and strictly_increasing
        return ok, {
            "disc_all_psd": disc_v.all_psd,
            "fock_all_psd": fock_v.all_psd,
            "disc_ranks_over_truncations": ranks,
            "truncations": [4, 6, 8, 10],
        }

    return _criterion(7, "Euclidean resolvability with unbounded rank", None, body)


def criterion_block_structure_audit() -> CriterionResult:
    def body():
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        audit = cross_coefficient_audit(spec)
        control_gap = abs(audit.control_value - audit.control_expected)
        ok = (
            len(audit.pair_values) == 64
            and audit.max_off_structure <= 1e-5
            and control_gap <= 1e-5
        )
        return ok, {
            "pair_count": len(audit.pair_values),
            "max_off_structure": audit.max_off_structure,
            "control_value": audit.control_value,
            "control_expected": audit.control_expected,
            "tolerance": 1e-5,
        }

    return _criterion(8, "vanishing cross coefficients", None, body)


def criterion_series_convergence(seed=DEFAULT_SEED) -> CriterionResult:
    def body():
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        rng = np.random.default_rng(seed)
        etas = []
        for _ in range(10):
            raw = rng.uniform(-1.0, 1.0, size=4)
            eta = raw[:2] + 1j * raw[2:]
            norm = np.linalg.norm(eta)
            eta *= rng.uniform(0.2, 1.0) * 0.1 / norm
            etas.append(eta)
        # the diastasis from the origin is the scaled potential itself
        gaps = series_partial_sum(spec, etas, 12) - hartogs_potential(spec, etas)
        worst = float(np.max(np.abs(gaps)))
        return worst <= 1e-8, {
            "max_abs_error": worst,
            "truncation_degree": 12,
            "points": 10,
            "tolerance": 1e-8,
        }

    return _criterion(9, "diastasis series converges to the potential", None, body)


def criterion_table_one() -> CriterionResult:
    def body():
        table = table_one()
        return table == EXPECTED_TABLE_ONE, {"table_one": table}

    return _criterion(10, "existence table reproduction", None, body)


@dataclass(frozen=True)
class AcceptanceSummary:
    criteria: tuple
    table: dict
    all_passed: bool
    total_elapsed: float
    seed: int

    def payload(self) -> dict:
        return {
            "schema": "1",
            "seed": self.seed,
            "all_passed": self.all_passed,
            "total_runtime_ok": self.total_elapsed < 60.0,
            "criteria": [
                {
                    "id": c.cid,
                    "title": c.title,
                    "passed": c.passed,
                    "details": c.details,
                }
                for c in self.criteria
            ],
            "table_one": self.table,
        }


def run_acceptance(seed: int = DEFAULT_SEED) -> AcceptanceSummary:
    """Run all criteria; the 60 s whole-suite budget folds into criterion 10."""
    start = time.perf_counter()
    results = [
        criterion_determinant_identity(seed),
        criterion_ricci_identity(seed),
        criterion_scalar_identity(seed),
        criterion_equivalence_chain(seed),
        criterion_hyperbolic_signs(),
        criterion_projective_blocks(),
        criterion_euclidean_rank_growth(),
        criterion_block_structure_audit(),
        criterion_series_convergence(seed),
        criterion_table_one(),
    ]
    total = time.perf_counter() - start
    table_result = results[-1]
    if total >= 60.0:
        details = dict(table_result.details)
        details["runtime_ok"] = False
        results[-1] = CriterionResult(
            cid=table_result.cid,
            title=table_result.title,
            passed=False,
            details=details,
            elapsed=table_result.elapsed,
        )
    return AcceptanceSummary(
        criteria=tuple(results),
        table=results[-1].details.get("table_one", {}),
        all_passed=all(r.passed for r in results),
        total_elapsed=total,
        seed=seed,
    )
