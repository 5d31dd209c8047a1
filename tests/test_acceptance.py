"""Acceptance gate: every criterion at its stated tolerance, one line each.

The suite is executed once (module scope) through the canned verification
runner; each test asserts its criterion and prints a PASS/FAIL line, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import pytest

from hartogs.fixtures import EXPECTED_TABLE_ONE, criterion_ricci_identity, run_acceptance


@pytest.fixture(scope="module")
def summary():
    return run_acceptance(seed=42)


def _criterion(summary, cid):
    result = next(c for c in summary.criteria if c.cid == cid)
    print(result.line())
    return result


def test_criterion_01_determinant_identity(summary):
    c = _criterion(summary, 1)
    assert c.details["max_relative_error"] <= 1e-8, c.details
    assert c.details["runtime_ok"], c.details
    assert c.passed


def test_criterion_02_ricci_identity(summary):
    c = _criterion(summary, 2)
    assert c.details["max_entrywise_gap"] <= 1e-3, c.details
    assert c.details["einstein_constant_gap"] <= 1e-3, c.details
    assert c.details["runtime_ok"], c.details
    assert c.passed


@pytest.mark.parametrize("seed", range(5))
def test_criterion_02_headroom(seed):
    # the Taylor-mode oracle meets the closed Ricci at round-off level, far
    # inside the criterion's tolerance of 1e-3
    details = criterion_ricci_identity(seed).details
    assert details["max_entrywise_gap"] <= 1e-9, details
    assert details["einstein_constant_gap"] <= 1e-9, details


def test_criterion_03_scalar_identity(summary):
    c = _criterion(summary, 3)
    assert c.details["max_trace_vs_closed"] <= 1e-6, c.details
    assert c.details["disc_mu1_constant_gap"] <= 1e-6, c.details
    assert abs(c.details["disc_mu2_at_zero_fiber"] + 5.0) <= 1e-6, c.details
    assert abs(c.details["disc_mu2_at_half_margin"] + 5.5) <= 1e-6, c.details
    assert c.passed


def test_criterion_04_equivalence_chain(summary):
    c = _criterion(summary, 4)
    d = c.details
    assert all(d["disc_mu1"].values()), d
    for name in ("disc_mu2", "fock1_mu_1"):
        assert not any(
            d[name][k] for k in ("is_einstein", "is_extremal", "is_constant_scalar")
        ), d
        assert d[name]["extremal_residual"] > 1e-3, d
        assert d[name]["witness_gap"] <= 1e-3, d
    assert c.passed


def test_criterion_05_hyperbolic_signs(summary):
    c = _criterion(summary, 5)
    d = c.details
    assert d["h_0.5_all_psd"] and d["h_1_all_psd"], d
    assert d["h_1_rank"] == 2, d
    failure = d["h_1.5_first_failure"]
    assert (failure["i"], failure["sigma"]) == (2, 2), d
    assert abs(failure["min_eig"] + 1.5) <= 1e-10, d
    assert d["runtime_ok"], d
    assert c.passed


def test_criterion_06_projective_blocks(summary):
    c = _criterion(summary, 6)
    assert c.details["all_psd"], c.details
    assert c.details["max_factorization_rel_error"] <= 1e-10, c.details
    assert c.passed


def test_criterion_07_euclidean_rank_growth(summary):
    c = _criterion(summary, 7)
    d = c.details
    assert d["disc_all_psd"] and d["fock_all_psd"], d
    ranks = d["disc_ranks_over_truncations"]
    assert all(b > a for a, b in zip(ranks, ranks[1:])), d
    assert c.passed


def test_criterion_08_block_structure_audit(summary):
    c = _criterion(summary, 8)
    assert c.details["pair_count"] == 64, c.details
    assert c.details["max_off_structure"] <= 1e-5, c.details
    assert (
        abs(c.details["control_value"] - c.details["control_expected"]) <= 1e-5
    ), c.details
    assert c.passed


def test_criterion_09_series_convergence(summary):
    c = _criterion(summary, 9)
    assert c.details["max_abs_error"] <= 1e-8, c.details
    assert c.passed


def test_criterion_10_table_reproduction(summary):
    c = _criterion(summary, 10)
    assert c.details["table_one"] == EXPECTED_TABLE_ONE, c.details
    assert summary.total_elapsed < 60.0
    assert c.passed


def test_all_criteria_pass(summary):
    assert summary.all_passed
