"""Tests for the floating-point verification oracle."""

import cmath
import functools
import importlib.resources as ir
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from humbert import oracle
from humbert.degrees import admissible_range
from humbert.oracle import (NearVanishingDenominator, SamplingExhausted,
                            SiegelPoint, pq_coordinates, rosenhain_numeric,
                            sample_humbert_point, theta_constants,
                            theta_direct, verify_component)
from humbert.poly import parse_poly
from humbert.rosenhain import rosenhain_triple
from humbert.theta import (THETA_CHARS, ThetaChar, humbert_params,
                           restricted_theta)


def h12_poly():
    return parse_poly((ir.files("humbert") / "data" / "h12.txt").read_text())


def ref_poly(delta):
    refs = Path(__file__).resolve().parents[1] / "bench" / "refs"
    return parse_poly((refs / ("h%d.txt" % delta)).read_text())


def eval_series_numeric(f, p, q):
    """The series f at the complex point (p, q), summed in sorted order."""
    total = 0j
    for (i, j) in sorted(f.terms):
        total += complex(f.terms[(i, j)]) * p ** i * q ** j
    return total


def expansion_vs_direct(disc, char, point, precision):
    """Relative error between the restricted expansion and the lattice sum.

    The printed restricted expansion differs from the classical theta
    constant by the constant characteristic phase i^(a*c + b*d) (it is -1
    exactly for theta_10); the comparison accounts for it.
    """
    f = restricted_theta(char, disc, precision)
    p, q = pq_coordinates(point)
    series_val = eval_series_numeric(f, p, q)
    phase = 1j ** ((char.a * char.c + char.b * char.d) % 4)
    direct = theta_direct(point, char)
    return abs(series_val * phase - direct) / abs(direct)


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


def reference_single_sum(point, char, tol=1e-12):
    """theta_{abcd}(tau) as a numpy sum over a flat box of its own, one
    characteristic at a time: the per-element operations of
    theta_constants, then one pairwise sum."""
    lam = point.min_im_eigenvalue()
    bound = math.sqrt((math.log(1.0 / tol) + 10.0) / (math.pi * lam))
    b = int(math.ceil(bound)) + 2
    x1, x2 = np.mgrid[-b:b + 1, -b:b + 1]
    y1 = x1.ravel() + char.a / 2.0
    y2 = x2.ravel() + char.b / 2.0
    expo = (point.tau1 * (y1 * y1) + point.tau2 * (2.0 * y1 * y2)
            + point.tau3 * (y2 * y2) + (char.c * y1 + char.d * y2))
    return complex(np.exp(1j * math.pi * expo).sum())


def reference_eval_complex(poly, z):
    """The polynomial at a complex triple, its terms sorted graded-lex
    and its powers built afresh at each call."""
    z1, z2, z3 = z
    d1, d2, d3 = poly.degrees
    p1 = [z1 ** i for i in range(d1 + 1)]
    p2 = [z2 ** i for i in range(d2 + 1)]
    p3 = [z3 ** i for i in range(d3 + 1)]
    total = 0j
    for (a, b, c) in sorted(poly.terms, key=lambda m: (sum(m),) + m):
        total += poly.terms[(a, b, c)] * p1[a] * p2[b] * p3[c]
    return total


ROSENHAIN_CHARS = [ThetaChar.from_index(i) for i in (1, 2, 3, 4, 8, 10)]


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
    with pytest.raises(ValueError, match="0 < tol < 1"):
        theta_constants(pt, ROSENHAIN_CHARS, tol=tol)


@pytest.mark.parametrize("delta", [1, 5, 12, 101, 600])
def test_theta_constants_rows_are_the_single_character_sums(delta):
    # each row of the stacked sum is bit for bit the sum of its own box
    disc = humbert_params(delta)
    chars = [ThetaChar.from_index(i) for i in THETA_CHARS]
    for seed in range(3):
        pt = sample_humbert_point(disc, seed=seed)
        for tol in (1e-8, 1e-12, 1e-14):
            vals = theta_constants(pt, chars, tol)
            assert all(type(v) is complex for v in vals)
            assert vals == tuple(reference_single_sum(pt, ch, tol)
                                 for ch in chars)
            assert theta_direct(pt, chars[2], tol) == vals[2]


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


def test_verify_component_makes_one_lattice_sum_per_point(monkeypatch):
    # rosenhain_numeric reaches theta_constants through the module
    # attribute, so a wrapper there sees every lattice sum
    calls = []
    constants = oracle.theta_constants

    def counting(point, chars, tol=1e-12):
        calls.append((point, list(chars)))
        return constants(point, chars, tol)

    monkeypatch.setattr(oracle, "theta_constants", counting)
    trials = 7
    _, _, residuals = verify_component(h12_poly(), 12, trials=trials, seed=3)
    assert len(residuals) == trials
    # no point was rejected at this seed: each trial drew one point, and
    # each point's six Rosenhain thetas came from one call
    assert len(calls) == trials
    assert len({point for point, _ in calls}) == trials
    assert all(chars == ROSENHAIN_CHARS for _, chars in calls)


def test_lattice_box_cache_hashes_no_characteristic(monkeypatch):
    # the box cache is keyed on plain int tuples, so a verification hashes
    # no ThetaChar, and the cached box is shared by equal characteristics
    hashed = []
    char_hash = ThetaChar.__hash__

    def counting(self):
        hashed.append(self)
        return char_hash(self)

    monkeypatch.setattr(ThetaChar, "__hash__", counting)
    verify_component(h12_poly(), 12, trials=5, seed=3)
    assert hashed == []
    pt = sample_humbert_point(humbert_params(5), seed=1)
    fresh = tuple(ThetaChar.from_index(i) for i in (1, 2, 3, 4, 8, 10))
    oracle._box.cache_clear()
    assert theta_constants(pt, fresh) == theta_constants(pt, ROSENHAIN_CHARS)
    info = oracle._box.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("component,delta", [(5, 5), (8, 8), (12, 12),
                                             (12, 5), (12, 8), (12, 9),
                                             (12, 13)])
def test_verify_component_matches_single_sums_bit_for_bit(component, delta,
                                                          monkeypatch):
    # the stacked theta sum and the evaluator built once per polynomial
    # give the same floats as six single sums per point and an evaluation
    # that sorts the terms at each point: compared with ==, no tolerance
    poly = h12_poly() if component == 12 else ref_poly(component)
    result = verify_component(poly, delta, trials=200, seed=1)
    with monkeypatch.context() as m:
        m.setattr(oracle, "theta_constants",
                  lambda point, chars, tol=1e-12: tuple(
                      reference_single_sum(point, ch, tol) for ch in chars))
        m.setattr(oracle, "complex_evaluator",
                  lambda p: functools.partial(reference_eval_complex, p))
        reference = verify_component(poly, delta, trials=200, seed=1)
    assert result == reference


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_component_rejects_nonpositive_trials(trials, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking trials")

    monkeypatch.setattr(oracle, "sample_humbert_point", no_sampling)
    with pytest.raises(ValueError, match="trials"):
        verify_component(h12_poly(), 12, trials=trials)


@pytest.mark.parametrize("tol", [0, -1e-6, math.inf, -math.inf, math.nan])
def test_verify_component_rejects_a_tolerance_outside_0_inf(tol,
                                                            monkeypatch):
    # tol = nan failed every point and tol = inf passed any polynomial
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking tol")

    monkeypatch.setattr(oracle, "sample_humbert_point", no_sampling)
    with pytest.raises(ValueError, match="0 < tol < inf"):
        verify_component(h12_poly(), 12, tol=tol)


def test_sampling_exhausted_names_delta_trial_and_seeds():
    # on H_2001 every draw of the first trial underflows a denominator
    with pytest.raises(SamplingExhausted) as info:
        verify_component(h12_poly(), 2001, trials=2)
    msg = str(info.value)
    assert "H_2001" in msg and "trial 0" in msg
    assert "seeds 1, 2, 3, 4, 5, 6, 7, 8" in msg


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
