"""The interior sampler reproduces the per-draw rejection loop bit for bit.

``sample_points`` reads its uniform draws from one ``rng.random`` buffer and
tests the factor draws in blocks. ``reference_sample_points`` below is the
per-draw loop it replaced: one ``rng.uniform`` call and one ``np.vdot`` per
factor draw, one ``phi`` call per candidate. Equal points and equal budget
errors make ``rng.uniform(low, high) == low + (high - low) * rng.random()``
a checked fact rather than an assumption.
"""

import math

import numpy as np
import pytest

from hartogs.domains import (
    _DRAW_BLOCK,
    MIN_INTERIOR_MARGIN,
    BaseDomainSpec,
    DomainKind,
    EvaluationPoint,
    HartogsSpec,
    phi,
    sample_points,
)
from hartogs.errors import CapabilityError


def reference_sample_points(
    spec, count, seed, margin_frac=0.05, min_margin=MIN_INTERIOR_MARGIN,
    radius_cap=0.7, max_tries=200_000,
):
    rng = np.random.default_rng(seed)
    base = spec.base
    pts = []
    tries = 0

    def count_try():
        nonlocal tries
        tries += 1
        if tries > max_tries:
            raise CapabilityError(
                f"interior sampling found {len(pts)} of {count} points within "
                f"its draw budget of {max_tries} tries"
            )

    def draw_factor(df):
        while True:
            count_try()
            if base.kind is DomainKind.FOCK:
                u = rng.uniform(-0.8, 0.8, size=2 * df)
                return u[:df] + 1j * u[df:]
            u = rng.uniform(-0.9, 0.9, size=2 * df)
            zf = u[:df] + 1j * u[df:]
            if float(np.real(np.vdot(zf, zf))) <= radius_cap:
                return zf

    while len(pts) < count:
        count_try()
        z = np.concatenate([draw_factor(df) for df in base.dims])
        phi_val = phi(base, z)
        if phi_val * (1.0 - margin_frac) <= min_margin:
            continue
        half = math.sqrt(phi_val)
        u = rng.uniform(-half, half, size=2 * spec.fiber_dim)
        z0 = u[: spec.fiber_dim] + 1j * u[spec.fiber_dim :]
        margin = phi_val - float(np.real(np.vdot(z0, z0)))
        if margin >= max(margin_frac * phi_val, min_margin):
            pts.append(EvaluationPoint(z0, z))
    return pts


SPECS = {
    "disc_mu_0.5": HartogsSpec(BaseDomainSpec.disc(0.5), 1),
    # phi = (1 - |z|^2)^8 fails the margin floor on about half the candidates
    "disc_mu_8": HartogsSpec(BaseDomainSpec.disc(8.0), 1),
    "ball3_fiber2": HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2),
    "polydisc_1_2": HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
    "polydisc_3_fiber2": HartogsSpec(BaseDomainSpec.polydisc((0.5, 1.0, 3.0)), 2),
    "cartan_1x3": HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1.0), 1),
    "cartan_2x2": HartogsSpec(BaseDomainSpec.cartan_type_i(2, 2, 1.5), 1),
    "fock2_fiber2": HartogsSpec(BaseDomainSpec.fock(2, 1.0), 2),
}

# (margin_frac, min_margin) as the CLI and the fixtures sample
MARGINS = [(0.05, MIN_INTERIOR_MARGIN), (0.05, 0.02), (0.05, 0.05), (0.1, 0.05)]


def same_points(a, b):
    return len(a) == len(b) and all(
        np.array_equal(p.fiber, q.fiber) and np.array_equal(p.base, q.base)
        for p, q in zip(a, b)
    )


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("margin_frac, min_margin", MARGINS)
def test_points_match_the_per_draw_loop(name, margin_frac, min_margin):
    spec = SPECS[name]
    for seed, counts in ((0, range(1, 26)), (1, [25]), (42, [25])):
        kw = dict(seed=seed, margin_frac=margin_frac, min_margin=min_margin)
        want = reference_sample_points(spec, 25, **kw)
        for count in counts:
            assert same_points(sample_points(spec, count, **kw), want[:count])


def outcome(sampler, spec, count, **kw):
    try:
        return sampler(spec, count, **kw)
    except CapabilityError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_budget_errors_match_the_per_draw_loop(name):
    spec = SPECS[name]
    for max_tries in (1, 2, 3, 5, 8, 20, 33, 64, 150, 400):
        for seed in (0, 7):
            kw = dict(seed=seed, margin_frac=0.1, min_margin=0.05, max_tries=max_tries)
            want = outcome(reference_sample_points, spec, 12, **kw)
            got = outcome(sample_points, spec, 12, **kw)
            if isinstance(want, str):
                assert got == want
            else:
                assert same_points(got, want)


@pytest.mark.parametrize(
    "max_tries", [1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, _DRAW_BLOCK + 2, 500, 5000]
)
def test_steep_potential_budget_matches_the_per_draw_loop(max_tries):
    # phi = (1 - |z|^2)^1e6 rejects nearly every candidate
    spec = HartogsSpec(BaseDomainSpec.disc(1e6), 1)
    kw = dict(seed=1, max_tries=max_tries)
    want = outcome(reference_sample_points, spec, 3, **kw)
    assert isinstance(want, str)
    assert outcome(sample_points, spec, 3, **kw) == want


def test_narrow_radius_cap_matches_the_per_draw_loop():
    # few factor draws pass, so a candidate spans several draw blocks
    for name, cap in (("ball3_fiber2", 0.3), ("polydisc_1_2", 0.01), ("cartan_2x2", 0.4)):
        spec = SPECS[name]
        kw = dict(seed=5, radius_cap=cap, max_tries=20_000)
        want = reference_sample_points(spec, 6, **kw)
        assert same_points(sample_points(spec, 6, **kw), want)
