"""Tests for the floating-point verification oracle."""

import cmath
import importlib.resources as ir

import pytest

from humbert.degrees import admissible_range
from humbert.oracle import (NearVanishingDenominator, SiegelPoint,
                            eval_series_numeric, expansion_vs_direct,
                            pq_coordinates, rosenhain_numeric,
                            sample_humbert_point, theta_direct,
                            verify_component)
from humbert.poly import eval_complex, parse_poly
from humbert.rosenhain import rosenhain_triple
from humbert.theta import THETA_CHARS, ThetaChar, humbert_params


def h12_poly():
    return parse_poly((ir.files("humbert") / "data" / "h12.txt").read_text())


def test_sampled_points_lie_in_domain():
    # Delta = 1 (k = 0) and Delta = 101 are the two cases of the
    # determinant bound that lets the sampler keep its first draw
    for delta in (1, 4, 5, 12, 101):
        disc = humbert_params(delta)
        for seed in range(5):
            pt = sample_humbert_point(disc, seed=seed)
            assert pt.is_valid()
            assert pt.tau1.imag > pt.tau2.imag > 0
            assert pt.tau3 == disc.k * pt.tau1 + disc.ell * pt.tau2


def test_theta_direct_converges_under_tightening():
    pt = sample_humbert_point(humbert_params(5), seed=1)
    char = ThetaChar.from_index(8)
    loose = theta_direct(pt, char, tol=1e-8)
    tight = theta_direct(pt, char, tol=1e-14)
    assert abs(loose - tight) < 1e-7


@pytest.mark.parametrize("delta", [4, 5, 12])
def test_expansion_matches_direct_sum_all_characteristics(delta):
    disc = humbert_params(delta)
    for seed in range(5):
        pt = sample_humbert_point(disc, seed=seed)
        for idx in THETA_CHARS:
            err = expansion_vs_direct(disc, ThetaChar.from_index(idx),
                                      pt, 60)
            assert err < 1e-6, (delta, idx, seed, err)


@pytest.mark.parametrize("delta", [4, 5, 12, 57, 60, 120])
def test_rosenhain_numeric_matches_series(delta):
    # the Rosenhain series are dense with growing coefficients, so unlike
    # the sparse theta expansions they need N = 120 to push the truncation
    # error below 1e-6 across the whole sampler box
    disc = humbert_params(delta)
    triple = rosenhain_triple(disc, 120)
    for seed in range(5):
        pt = sample_humbert_point(disc, seed=seed)
        p, q = pq_coordinates(pt)
        nums = rosenhain_numeric(pt, disc)
        for f, val in zip(triple.series(), nums):
            assert abs(eval_series_numeric(f, p, q) - val) / abs(val) < 1e-6


def test_every_admissible_delta_can_be_sampled():
    # on H_Delta theta10 carries p^(1+k) q^(k+l-1), so its modulus falls
    # below any fixed floor as k grows; held to the floor as it is, it
    # rejected nearly every draw from Delta = 56 on.  Divided by that
    # monomial's modulus it stays near 2, and every draw is accepted
    for delta in admissible_range(120):
        disc = humbert_params(delta)
        for seed in range(5):
            pt = sample_humbert_point(disc, seed=seed)
            e = rosenhain_numeric(pt, disc)
            assert all(cmath.isfinite(x) and x != 0 for x in e), (delta, seed)


def test_an_underflowing_denominator_is_near_vanishing():
    # at Delta = 2001 theta2^2 theta10^2 underflows float64 to zero at
    # these points: a rejected point, not a ZeroDivisionError
    disc = humbert_params(2001)
    for seed in range(3):
        with pytest.raises(NearVanishingDenominator):
            rosenhain_numeric(sample_humbert_point(disc, seed=seed), disc)


def test_verify_component_passes_on_own_surface():
    passed, max_res, residuals = verify_component(h12_poly(), 12,
                                                  trials=20, tol=1e-6)
    assert passed
    assert max_res < 1e-12
    assert len(residuals) == 20


def test_verify_component_fails_on_wrong_surface():
    # the Delta = 12 component does not vanish on H_5.  The scaled
    # residuals off the surface sit many orders of magnitude above the
    # on-surface ones (about 1e-8 and up against 1e-17), but they can dip
    # below the loose 1e-6 gate, so the discriminating tolerance here is
    # pinned at 1e-12.
    passed, max_res, _ = verify_component(h12_poly(), 5, trials=20,
                                          tol=1e-12)
    assert not passed
    assert max_res > 1e-9


def test_invalid_point_rejected():
    pt = SiegelPoint(complex(0.0, -1.0), complex(0.1, 0.01),
                     complex(0.0, -1.0))
    assert not pt.is_valid()
