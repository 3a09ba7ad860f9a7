"""Tests for the floating-point verification oracle."""

import cmath
import importlib.resources as ir
import itertools
import math
from pathlib import Path

import pytest

from humbert import oracle
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


def ref_poly(delta):
    refs = Path(__file__).resolve().parents[1] / "bench" / "refs"
    return parse_poly((refs / ("h%d.txt" % delta)).read_text())


def reference_lattice_sum(point, char, tol):
    """theta_{abcd}(tau) as one cmath.exp per lattice point of the same
    box as theta_direct, summed shell by shell (by max-norm) outwards."""
    lam = point.min_im_eigenvalue()
    bound = math.sqrt((math.log(1.0 / tol) + 10.0) / (math.pi * lam))
    b = int(math.ceil(bound)) + 2
    box = sorted(itertools.product(range(-b, b + 1), repeat=2),
                 key=lambda x: (max(abs(x[0]), abs(x[1])), x))
    total = 0j
    for x1, x2 in box:
        y1 = x1 + char.a / 2.0
        y2 = x2 + char.b / 2.0
        quad = (point.tau1 * y1 * y1 + 2.0 * point.tau2 * y1 * y2
                + point.tau3 * y2 * y2)
        lin = y1 * char.c / 2.0 + y2 * char.d / 2.0
        total += cmath.exp(2j * math.pi * (0.5 * quad + lin))
    return total


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


@pytest.mark.parametrize("delta", [1, 4, 5, 12, 60, 101])
def test_theta_direct_matches_reference_lattice_sum(delta):
    disc = humbert_params(delta)
    for seed in range(4):
        pt = sample_humbert_point(disc, seed=seed)
        for idx in THETA_CHARS:
            char = ThetaChar.from_index(idx)
            for tol in (1e-8, 1e-12, 1e-14):
                val = theta_direct(pt, char, tol=tol)
                ref = reference_lattice_sum(pt, char, tol)
                assert type(val) is complex
                assert abs(val - ref) <= 1e-14 * abs(ref), (idx, seed, tol)


@pytest.mark.parametrize("tol", [0, -1, math.inf, math.nan, 1e30, 1])
def test_theta_direct_rejects_tol_outside_unit_interval(tol):
    pt = sample_humbert_point(humbert_params(5), seed=1)
    with pytest.raises(ValueError, match="0 < tol < 1"):
        theta_direct(pt, ThetaChar.from_index(1), tol=tol)


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


@pytest.mark.parametrize("delta", [5, 8, 12])
def test_verify_component_residuals_on_reference_components(delta):
    # 200 trials at seed 1, as the bench's certify workload runs them;
    # the largest residuals are about 5e-17, 6e-17 and 1e-17
    poly = h12_poly() if delta == 12 else ref_poly(delta)
    passed, max_res, residuals = verify_component(poly, delta, trials=200,
                                                  seed=1)
    assert passed
    assert len(residuals) == 200
    assert max_res < 1e-15


def test_verify_component_evaluates_six_thetas_per_point(monkeypatch):
    # rosenhain_numeric reaches theta_direct through the module attribute,
    # so a wrapper there sees every lattice sum (the bench's span does too)
    calls = []
    direct = oracle.theta_direct

    def counting(point, char, tol=1e-12):
        calls.append(point)
        return direct(point, char, tol)

    monkeypatch.setattr(oracle, "theta_direct", counting)
    trials = 7
    _, _, residuals = verify_component(h12_poly(), 12, trials=trials, seed=3)
    assert len(residuals) == trials
    # no point was rejected at this seed: each trial drew one point
    assert len(set(calls)) == trials
    assert len(calls) == 6 * trials


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_component_rejects_nonpositive_trials(trials, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking trials")

    monkeypatch.setattr(oracle, "sample_humbert_point", no_sampling)
    with pytest.raises(ValueError, match="trials"):
        verify_component(h12_poly(), 12, trials=trials)


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
