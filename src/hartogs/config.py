"""Line-based ``key = value`` domain configuration files.

Grammar: UTF-8 text, ``#`` starts a comment, blank lines ignored. Keys:

    base.kind          ball | polydisc | cartan_type_I | fock
    base.dims          comma list; (m, n) for cartan_type_I
    base.mu            comma list of positive numbers, fractions allowed
    fiber.dim          positive integer (default 1)
    scale.h            positive number (default 1)
    facts.euclidean    yes | no | unknown  (user-supplied base facts,
    facts.projective    for non-catalog bases; scale-independent)
    facts.hyperbolic

A number is read exactly as written (1/3, 0.1 and 1e-3 are exact
rationals), and its value must lie in the double range. The exponents and
the scale h stay exact, so the curvature and immersion verdicts are decided
on them; h enters the series arithmetic as its nearest double. Unknown keys
are hard errors carrying the line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .domains import BaseDomainSpec, DomainKind, HartogsSpec
from .errors import ConfigError
from .immersion import BaseImmersionFacts, constant_facts

_KNOWN_KEYS = {
    "base.kind",
    "base.dims",
    "base.mu",
    "fiber.dim",
    "scale.h",
    "facts.euclidean",
    "facts.projective",
    "facts.hyperbolic",
}

_FACT_KEYS = ("facts.euclidean", "facts.projective", "facts.hyperbolic")


@dataclass(frozen=True)
class ParsedConfig:
    spec: HartogsSpec
    facts: BaseImmersionFacts | None


def _parse_number(text: str, line: int) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(text)
        float(value)  # OverflowError past the double range
        return value
    except OverflowError:
        pass
    except (ValueError, ZeroDivisionError):
        if text.lstrip("+-").lower() not in ("inf", "infinity", "nan"):
            raise ConfigError(f"expected a number, got {text!r}", line=line) from None
    raise ConfigError(f"expected a finite number, got {text!r}", line=line)


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", line=line) from None


def _parse_list(text: str, parse, line: int) -> tuple:
    return tuple(parse(part, line) for part in text.split(","))


def parse_config_text(text: str) -> ParsedConfig:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line=lineno)
        entries[key] = (value, lineno)

    for required in ("base.kind", "base.dims", "base.mu"):
        if required not in entries:
            raise ConfigError(f"missing required key {required!r}")

    kind_text, kind_line = entries["base.kind"]
    try:
        kind = DomainKind(kind_text)
    except ValueError:
        raise ConfigError(f"unknown base kind {kind_text!r}", line=kind_line) from None

    dims_text, dims_line = entries["base.dims"]
    dims = _parse_list(dims_text, _parse_int, dims_line)
    mu_text, mu_line = entries["base.mu"]
    mus = _parse_list(mu_text, _parse_number, mu_line)

    shape = None
    if kind is DomainKind.CARTAN_TYPE_I:
        if len(dims) != 2:
            raise ConfigError(
                "cartan_type_I expects base.dims = m,n", line=dims_line
            )
        shape = (dims[0], dims[1])
        dims = (dims[0] * dims[1],)

    try:
        base = BaseDomainSpec(kind, dims, mus, shape=shape)
    except ValueError as exc:
        line = mu_line if str(exc).startswith("exponents") else dims_line
        raise ConfigError(str(exc), line=line) from None

    fiber_dim = 1
    if "fiber.dim" in entries:
        value, line = entries["fiber.dim"]
        fiber_dim = _parse_int(value, line)
    scale = Fraction(1)
    if "scale.h" in entries:
        value, line = entries["scale.h"]
        scale = _parse_number(value, line)
    try:
        spec = HartogsSpec(base, fiber_dim, scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    facts = None
    if any(key in entries for key in _FACT_KEYS):
        values = {}
        for key in _FACT_KEYS:
            if key not in entries:
                values[key] = "unknown"
                continue
            value, line = entries[key]
            if value not in ("yes", "no", "unknown"):
                raise ConfigError(
                    f"{key} must be yes, no or unknown", line=line
                )
            values[key] = value
        facts = constant_facts(
            values["facts.euclidean"],
            values["facts.projective"],
            values["facts.hyperbolic"],
            provenance="user_supplied",
        )
    return ParsedConfig(spec=spec, facts=facts)


def parse_config(path) -> ParsedConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config_text(text)
