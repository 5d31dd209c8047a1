"""Existence decisions for Kahler immersions into the complex space forms.

The Hartogs-domain verdicts reduce to facts about the base domain:

* complex Euclidean space: exists (at any scale) iff the base immerses
  into some C^N;
* complex projective space at scale h: exists iff the base at every shifted
  scale h + s, s a nonnegative integer, immerses into CP^infinity;
* complex hyperbolic space at scale h: exists iff the base at scale h
  immerses into some CH^N and 0 < h <= 1. For h > 1 the pure-fiber blocks of
  degree 2 acquire a negative entry for every base, so existence fails
  outright.

No finite-dimensional target ever admits an immersion: the pure-fiber
coefficient entries stay strictly positive at every degree for the Euclidean
and projective forms, so the resolvability rank grows past any candidate N.

Base facts follow a lemma lattice: a CH immersion of the base forces a
C^infinity one, and a C^infinity one forces CP^infinity at every scale.
Catalog bases carry facts derived from the sign profile of each factor's
series coefficient, the same one the blocks and the exact sweep read
(:func:`catalog_facts`); anything else must be user supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

from .domains import BaseDomainSpec, DomainKind, HartogsSpec, _exact
from .errors import CapabilityError, HartogsError
from .series import Form, _scale, _symbols, resolvability


class Answer(str, Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    UNKNOWN = "unknown"


YES = "yes"
NO = "no"
UNKNOWN = "unknown"
_FACT_VALUES = (YES, NO, UNKNOWN)


class ImmersionTarget(str, Enum):
    C_FINITE = "C_finite"
    C_INFINITE = "C_infinite"
    CP_FINITE = "CP_finite"
    CP_INFINITE = "CP_infinite"
    CH_FINITE = "CH_finite"
    CH_INFINITE = "CH_infinite"

    @property
    def finite(self) -> bool:
        return self.value.endswith("_finite")

    @property
    def form(self) -> Form:
        name = self.value.split("_")[0]
        return {"C": Form.EUCLIDEAN, "CP": Form.PROJECTIVE, "CH": Form.HYPERBOLIC}[name]

    @classmethod
    def parse(cls, text: str) -> "ImmersionTarget":
        cleaned = text.strip().replace("-", "_")
        if cleaned in ("C", "CP", "CH"):
            cleaned += "_infinite"
        try:
            return cls(cleaned)
        except ValueError:
            raise ValueError(
                f"unknown target {text!r}; expected C, CP, CH optionally "
                "suffixed with -finite or -infinite"
            ) from None


@dataclass(frozen=True)
class BaseImmersionFacts:
    """Immersion facts about the base domain, closed under the lemma lattice.

    ``projective`` and ``hyperbolic`` map the exact scale h to yes/no/unknown;
    ``projective`` already quantifies over all nonnegative integer shifts of
    h. A yes Euclidean fact upgrades every projective fact; a no Euclidean
    fact forces every hyperbolic fact to no.
    """

    euclidean: str
    projective: Callable[[Fraction], str] = field(repr=False)
    hyperbolic: Callable[[Fraction], str] = field(repr=False)
    provenance: str = "user_supplied"

    def __post_init__(self):
        if self.euclidean not in _FACT_VALUES:
            raise ValueError(f"euclidean fact must be one of {_FACT_VALUES}")

    def projective_all_shifts(self, h: Fraction) -> str:
        if self.euclidean == YES:
            return YES
        value = self.projective(h)
        _check_fact(value)
        return value

    def hyperbolic_at(self, h: Fraction) -> str:
        value = self.hyperbolic(h)
        _check_fact(value)
        if value == YES and self.euclidean == NO:
            raise HartogsError(
                "inconsistent facts: a hyperbolic immersion of the base "
                "forces a Euclidean one"
            )
        if self.euclidean == NO:
            return NO
        return value


def _check_fact(value: str):
    if value not in _FACT_VALUES:
        raise ValueError(f"fact values must be one of {_FACT_VALUES}")


def constant_facts(euclidean: str, projective: str, hyperbolic: str, provenance="user_supplied") -> BaseImmersionFacts:
    """Facts with scale-independent projective / hyperbolic verdicts."""
    for v in (euclidean, projective, hyperbolic):
        _check_fact(v)
    return BaseImmersionFacts(
        euclidean=euclidean,
        projective=lambda h: projective,
        hyperbolic=lambda h: hyperbolic,
        provenance=provenance,
    )


def catalog_facts(base: BaseDomainSpec) -> BaseImmersionFacts:
    """Derived facts for the catalog bases, read from each factor's series
    coefficient (:class:`hartogs.series._Coefficient`).

    Every Euclidean and projective entry is nonnegative (a positive
    prefactor times coefficients at positive arguments), so C and CP are
    yes. The hyperbolic entries with sigma = 0 are -prod_i c_i(-mu_i h, k_i)
    times positive factorials. With two or more factors the entry at
    k = (1, 1, 0, ...) is -mu_1 mu_2 h^2 < 0. With one factor they are all
    nonnegative iff the coefficient at a = -mu h has exactly one negative
    factor, that is sign cutoff 1: a ball-like factor iff h mu <= 1, a fock
    factor never. For h <= 1 the sigma >= 1 entries are nonnegative too.
    """
    if base.kind is DomainKind.CARTAN_TYPE_I and min(base.shape) >= 2:
        raise CapabilityError(
            "no derived immersion facts for rank >= 2 matrix bases; "
            "supply facts explicitly"
        )
    (symbol, *others), (mu, *_) = _symbols(base), base.exponents

    def hyperbolic(h: Fraction) -> str:
        a = -mu * _exact(h)
        return YES if not others and symbol.signs(a.numerator, a.denominator, 2)[0] == 1 else NO

    return BaseImmersionFacts(
        euclidean=YES,
        projective=lambda h: YES,
        hyperbolic=hyperbolic,
        provenance="catalog",
    )


@dataclass(frozen=True)
class ImmersionVerdict:
    target: ImmersionTarget
    h: Fraction
    answer: Answer
    rule: str
    provenance: str

    def __post_init__(self):
        if self.target.finite and self.answer is Answer.EXISTS:
            raise HartogsError("finite-dimensional targets never admit immersions")


_RULE_FINITE = "finite-target-exclusion: resolvability rank exceeds every finite N"
_RULE_EUCLIDEAN = "euclidean-criterion: base immerses into some C^N"
_RULE_PROJECTIVE = "projective-shift-criterion: base immerses at all shifted scales"
_RULE_HYPERBOLIC = "hyperbolic-criterion: base immerses at scale h and 0 < h <= 1"
_RULE_SCALE_BOUND = "hyperbolic-scale-bound: degree-2 fiber block negative for h > 1"
_RULE_MISSING = "missing base fact"


def decide(
    spec: HartogsSpec,
    target: ImmersionTarget,
    h: float | None = None,
    facts: BaseImmersionFacts | None = None,
) -> ImmersionVerdict:
    """Existence verdict for one target space form at scale h."""
    target = ImmersionTarget(target)
    h = _scale(spec, h)
    facts = catalog_facts(spec.base) if facts is None else facts

    def verdict(answer, rule):
        return ImmersionVerdict(
            target=target, h=h, answer=answer, rule=rule, provenance=facts.provenance
        )

    if target.finite:
        return verdict(Answer.NOT_EXISTS, _RULE_FINITE)
    if target is ImmersionTarget.C_INFINITE:
        fact = facts.euclidean
        rule = _RULE_EUCLIDEAN
    elif target is ImmersionTarget.CP_INFINITE:
        fact = facts.projective_all_shifts(h)
        rule = _RULE_PROJECTIVE
    else:
        if h > 1:
            return verdict(Answer.NOT_EXISTS, _RULE_SCALE_BOUND)
        fact = facts.hyperbolic_at(h)
        rule = _RULE_HYPERBOLIC
    if fact == YES:
        return verdict(Answer.EXISTS, rule)
    if fact == NO:
        return verdict(Answer.NOT_EXISTS, rule)
    return verdict(Answer.UNKNOWN, _RULE_MISSING)


@dataclass(frozen=True)
class CrossCheckReport:
    verdict: ImmersionVerdict
    all_psd: bool
    rank_lower_bound: int
    first_failure: tuple | None
    truncation_degree: int
    agreement: str


def cross_check(
    spec: HartogsSpec,
    target: ImmersionTarget,
    h: float | None = None,
    truncation_degree: int = 10,
    facts: BaseImmersionFacts | None = None,
) -> CrossCheckReport:
    """Consistency of :func:`decide` with the truncated resolvability sweep.

    An existence verdict must see every block PSD; a sign-obstructed
    non-existence verdict (infinite targets) must see a failing block at
    finite degree. The sweep decides signs exactly, so even just above h = 1
    it sees the scale-bound obstruction, the (2, 2) entry h (1 - h) times
    positive weights, as a failing block. Finite-target exclusions rest on
    rank growth and only report the accumulated rank. Contradictions raise
    hard errors naming the block.
    """
    target = ImmersionTarget(target)
    v = decide(spec, target, h, facts)
    res = resolvability(target.form, spec, h=h, truncation_degree=truncation_degree)
    failure = None
    if res.first_failure is not None:
        failure = (
            res.first_failure.total_degree,
            res.first_failure.fiber_degree,
            res.first_failure.min_eigenvalue,
        )
    if v.answer is Answer.EXISTS:
        if not res.all_psd:
            raise HartogsError(
                f"contradiction: {target.value} immersion claimed but block "
                f"(i={failure[0]}, sigma={failure[1]}) is not PSD"
            )
        agreement = "exists-all-psd"
    elif v.answer is Answer.UNKNOWN:
        agreement = "unknown-exempt"
    elif target.finite:
        agreement = "finite-rank-evidence"
    elif not res.all_psd:
        agreement = "obstruction-found"
    else:
        raise HartogsError(
            f"contradiction: {target.value} immersion excluded but every "
            f"block through degree {truncation_degree} is PSD"
        )
    return CrossCheckReport(
        verdict=v,
        all_psd=res.all_psd,
        rank_lower_bound=res.rank_lower_bound,
        first_failure=failure,
        truncation_degree=truncation_degree,
        agreement=agreement,
    )


# ---------------------------------------------------------------------------
# The summary verdict table
# ---------------------------------------------------------------------------

_ROW_FACTS = {
    # Sufficient condition rows: what is assumed about the base.
    "A": BaseImmersionFacts(
        euclidean=YES,
        projective=lambda h: YES,
        hyperbolic=lambda h: UNKNOWN,
        provenance="hypothesis-A: base immerses into C^N",
    ),
    "B": BaseImmersionFacts(
        euclidean=NO,
        projective=lambda h: YES,
        hyperbolic=lambda h: NO,
        provenance="hypothesis-B: base immerses projectively at all shifts only",
    ),
    "C": BaseImmersionFacts(
        euclidean=YES,
        projective=lambda h: YES,
        hyperbolic=lambda h: YES,
        provenance="hypothesis-C: base immerses hyperbolically, 0 < h <= 1",
    ),
}


def table_one(h: float = 1.0) -> dict:
    """The 3 x 6 existence matrix over the hypothesis rows A, B, C.

    Row A assumes only a Euclidean immersion of the base (the hyperbolic
    fact is left unknown, and so is the CH^infinity cell); row B assumes the
    projective shift condition alone; row C a hyperbolic immersion at scale
    h <= 1. Finite columns are excluded everywhere by rank growth.
    """
    spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)  # carrier only
    out = {}
    for row, facts in _ROW_FACTS.items():
        out[row] = {
            t.value: decide(spec, t, h, facts).answer.value for t in ImmersionTarget
        }
    return out
