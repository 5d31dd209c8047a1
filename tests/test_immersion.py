from fractions import Fraction

import pytest

from hartogs.domains import BaseDomainSpec, DomainKind, HartogsSpec
from hartogs.errors import CapabilityError, HartogsError
from hartogs.immersion import (
    NO,
    UNKNOWN,
    YES,
    Answer,
    BaseImmersionFacts,
    ImmersionTarget,
    ImmersionVerdict,
    catalog_facts,
    constant_facts,
    cross_check,
    decide,
    table_one,
)

DISC = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
FOCK = HartogsSpec(BaseDomainSpec.fock(1, 1.0), 1)

EXPECTED_TABLE = {
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


class TestTargets:
    def test_parse_shorthand(self):
        assert ImmersionTarget.parse("CH") is ImmersionTarget.CH_INFINITE
        assert ImmersionTarget.parse("C-finite") is ImmersionTarget.C_FINITE
        assert ImmersionTarget.parse("CP_infinite") is ImmersionTarget.CP_INFINITE

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ImmersionTarget.parse("quaternionic")

    def test_finite_targets_never_exist(self):
        with pytest.raises(HartogsError):
            ImmersionVerdict(
                target=ImmersionTarget.C_FINITE,
                h=1.0,
                answer=Answer.EXISTS,
                rule="x",
                provenance="t",
            )


class TestCatalogFacts:
    def test_disc(self):
        facts = catalog_facts(BaseDomainSpec.disc(1.0))
        assert facts.euclidean == YES
        assert facts.projective_all_shifts(2.7) == YES
        assert facts.hyperbolic_at(1.0) == YES
        assert facts.hyperbolic_at(1.5) == NO

    def test_disc_scale_couples_to_exponent(self):
        facts = catalog_facts(BaseDomainSpec.disc(2.0))
        assert facts.hyperbolic_at(0.5) == YES
        assert facts.hyperbolic_at(0.6) == NO

    def test_fock(self):
        facts = catalog_facts(BaseDomainSpec.fock(1, 1.0))
        assert facts.euclidean == YES
        for h in (0.5, 1.0, 2.0):
            assert facts.hyperbolic_at(h) == NO

    def test_polydisc_blocks_hyperbolic(self):
        facts = catalog_facts(BaseDomainSpec.polydisc((1.0, 1.0)))
        assert facts.hyperbolic_at(0.5) == NO

    def test_rank_one_matrix_ball(self):
        facts = catalog_facts(BaseDomainSpec.cartan_type_i(1, 3, 1.0))
        assert facts.hyperbolic_at(1.0) == YES

    @pytest.mark.parametrize(
        "base",
        [
            BaseDomainSpec.disc(1),
            BaseDomainSpec.disc(Fraction(1, 3)),
            BaseDomainSpec.ball(2, Fraction(3, 2)),
            BaseDomainSpec.cartan_type_i(1, 3, 2),
            BaseDomainSpec.fock(1, 1),
            BaseDomainSpec.fock(2, Fraction(1, 3)),
            BaseDomainSpec.polydisc((1, 1)),
        ],
        ids=["disc_1", "disc_1_3", "ball2_3_2", "cartan_1x3_2", "fock1", "fock2_1_3",
             "polydisc_1_1"],
    )
    def test_derived_facts_match_the_hand_written_rule(self, base):
        # C and CP always; CH iff the base is one ball-like factor with h mu <= 1
        facts = catalog_facts(base)
        assert facts.euclidean == YES
        mu = base.exponents[0]
        ball_like = base.kind is not DomainKind.FOCK and base.factor_count == 1
        for h in (1 / (2 * mu), 1 / mu, 3 / (2 * mu), 1 / mu + Fraction(1, 10**9)):
            assert facts.projective_all_shifts(h) == YES
            assert facts.hyperbolic_at(h) == (YES if ball_like and h * mu <= 1 else NO), h

    def test_rank_two_needs_user_facts(self):
        with pytest.raises(CapabilityError):
            catalog_facts(BaseDomainSpec.cartan_type_i(2, 2, 1.0))

    def test_inconsistent_user_facts_raise(self):
        facts = constant_facts(NO, YES, YES)
        with pytest.raises(HartogsError, match="inconsistent"):
            facts.hyperbolic_at(0.5)

    def test_euclidean_upgrades_projective(self):
        facts = BaseImmersionFacts(
            euclidean=YES,
            projective=lambda h: UNKNOWN,
            hyperbolic=lambda h: UNKNOWN,
        )
        assert facts.projective_all_shifts(0.4) == YES


class TestDecide:
    def test_disc_ch_at_one(self):
        v = decide(DISC, ImmersionTarget.CH_INFINITE, h=1.0)
        assert v.answer is Answer.EXISTS
        assert "hyperbolic" in v.rule

    def test_disc_ch_above_one(self):
        v = decide(DISC, ImmersionTarget.CH_INFINITE, h=1.5)
        assert v.answer is Answer.NOT_EXISTS
        assert "h > 1" in v.rule

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_scale(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            decide(DISC, ImmersionTarget.CH_INFINITE, h=h)

    def test_fock_euclidean(self):
        assert decide(FOCK, ImmersionTarget.C_INFINITE).answer is Answer.EXISTS
        assert decide(FOCK, ImmersionTarget.C_FINITE).answer is Answer.NOT_EXISTS

    def test_unknown_facts_yield_unknown(self):
        facts = constant_facts(UNKNOWN, UNKNOWN, UNKNOWN)
        v = decide(DISC, ImmersionTarget.C_INFINITE, facts=facts)
        assert v.answer is Answer.UNKNOWN
        assert v.rule == "missing base fact"

    def test_deterministic_rules(self):
        a = decide(DISC, ImmersionTarget.CP_INFINITE, h=0.3)
        b = decide(DISC, ImmersionTarget.CP_INFINITE, h=0.3)
        assert a == b

    @pytest.mark.parametrize(
        "spec",
        [DISC, FOCK, HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1)],
    )
    @pytest.mark.parametrize("h", [0.3, 0.5, 1.0, 1.5, 2.7])
    def test_lemma_lattice(self, spec, h):
        ch = decide(spec, ImmersionTarget.CH_INFINITE, h=h).answer
        c = decide(spec, ImmersionTarget.C_INFINITE, h=h).answer
        cp = decide(spec, ImmersionTarget.CP_INFINITE, h=h).answer
        if ch is Answer.EXISTS:
            assert c is Answer.EXISTS
        if c is Answer.EXISTS:
            assert cp is Answer.EXISTS


class TestCrossCheck:
    def test_disc_h1_agrees(self):
        rep = cross_check(DISC, ImmersionTarget.CH_INFINITE, h=1.0)
        assert rep.agreement == "exists-all-psd"
        assert rep.all_psd

    def test_disc_h15_obstruction(self):
        rep = cross_check(DISC, ImmersionTarget.CH_INFINITE, h=1.5)
        assert rep.agreement == "obstruction-found"
        assert rep.first_failure[:2] == (2, 2)

    def test_projective_h27(self):
        rep = cross_check(DISC, ImmersionTarget.CP_INFINITE, h=2.7)
        assert rep.agreement == "exists-all-psd"

    def test_finite_rank_evidence(self):
        rep = cross_check(DISC, ImmersionTarget.C_FINITE, h=1.0)
        assert rep.agreement == "finite-rank-evidence"
        assert rep.rank_lower_bound > 10

    def test_fock_hyperbolic_obstruction(self):
        rep = cross_check(FOCK, ImmersionTarget.CH_INFINITE, h=0.5)
        assert rep.agreement == "obstruction-found"

    def test_polydisc_hyperbolic_obstruction(self):
        spec = HartogsSpec(BaseDomainSpec.polydisc((1.0, 1.0)), 1)
        rep = cross_check(spec, ImmersionTarget.CH_INFINITE, h=0.5)
        assert rep.agreement == "obstruction-found"

    @pytest.mark.parametrize("truncation", [2, 3, 4, 6])
    @pytest.mark.parametrize(
        "spec",
        [
            DISC,
            HartogsSpec(BaseDomainSpec.disc(1.0), 2),
            HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2),
        ],
    )
    def test_scale_bound_inside_the_sweep_tolerance(self, spec, truncation):
        # just above h = 1 the (2, 2) entry h (1 - h) w is about -4.4e-16 w,
        # far below any float tolerance; the exact sweep still sees its sign
        rep = cross_check(
            spec, ImmersionTarget.CH_INFINITE, h=1.0000000000000002,
            truncation_degree=truncation,
        )
        assert rep.verdict.answer is Answer.NOT_EXISTS
        assert not rep.all_psd
        assert rep.first_failure[:2] == (2, 2)
        assert rep.first_failure[2] < 0
        assert rep.agreement == "obstruction-found"

    def test_psd_sweep_still_contradicts_other_exclusions(self):
        facts = constant_facts(YES, YES, NO)  # a false fact: the disc does immerse
        with pytest.raises(HartogsError, match="contradiction"):
            cross_check(DISC, ImmersionTarget.CH_INFINITE, h=0.5, facts=facts)

    @pytest.mark.parametrize("h", [0.3, 0.5, 1.0, 1.5, 2.7])
    @pytest.mark.parametrize(
        "spec",
        [
            DISC,
            FOCK,
            HartogsSpec(BaseDomainSpec.disc(2.0), 1),
            HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2),
            HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
            HartogsSpec(BaseDomainSpec.cartan_type_i(1, 2, 1.0), 1),
        ],
    )
    def test_catalog_never_contradicts(self, spec, h):
        # decide() and the truncated block sweep must agree for every
        # catalog spec, target and scale; contradictions raise
        for target in ImmersionTarget:
            cross_check(spec, target, h=h, truncation_degree=6)


def test_table_one_matches_expected():
    assert table_one() == EXPECTED_TABLE
