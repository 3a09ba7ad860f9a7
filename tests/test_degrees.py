"""Tests for component counts and degree bookkeeping."""

import math
import random

import pytest

from humbert.degrees import (NonIntegralDegree, SpecialCase, a_delta,
                             admissible_range, deg_conjectured, deg_fstar,
                             degree_table, m_components, sigma1)
from humbert.series import InputError

rng = random.Random(998877)

# (delta, m, a_delta, deg F*, conjectured deg F or None for delta = 1)
TABLE = [
    (1, 10, 10, 1, None),
    (4, 15, 70, 4, 2),
    (5, 6, 48, 8, 8),
    (8, 15, 120, 8, 8),
    (9, 10, 250, 24, 16),
    (12, 15, 240, 16, 16),
    (13, 6, 240, 40, 40),
    (16, 15, 550, 32, 24),
    (17, 10, 480, 48, 48),
    (20, 15, 528, 32, 32),
    (21, 6, 480, 80, 80),
    (24, 15, 720, 48, 48),
]


def test_sigma1_values():
    assert sigma1(0) == 0
    assert sigma1(1) == 1
    assert sigma1(6) == 12
    assert sigma1(12) == 28


def test_sigma1_multiplicative_on_coprimes():
    for _ in range(200):
        a = rng.randrange(1, 200)
        b = rng.randrange(1, 200)
        if math.gcd(a, b) == 1:
            assert sigma1(a * b) == sigma1(a) * sigma1(b)


def test_m_components_three_cases():
    for delta, m, _, _, _ in TABLE:
        assert m_components(delta) == m
    assert m_components(25) == 10  # 1 mod 8
    assert m_components(28) == 15  # 0 mod 4
    assert m_components(29) == 6   # 5 mod 8


def test_degree_table_matches_reference():
    rows = degree_table(24)
    assert [(d, m, a, f, c) for d, m, a, f, c in rows] == TABLE


def test_degree_table_is_fast():
    import time
    t0 = time.time()
    degree_table(24)
    assert time.time() - t0 < 1.0


def test_siegel_consistency_up_to_200():
    # a_delta from the divisor-sum formula must match the value implied by
    # the degree recursion: a_delta = sum over square divisors.
    for delta in admissible_range(200):
        total = 0
        for t in range(1, math.isqrt(delta) + 1):
            if delta % (t * t) == 0:
                d2 = delta // (t * t)
                if d2 % 4 in (0, 1):
                    total += m_components(d2) * deg_fstar(d2)
        assert total == a_delta(delta)


def test_sigma1_refuses_a_negative_argument():
    assert (sigma1(0), sigma1(1), sigma1(12)) == (0, 1, 28)
    with pytest.raises(InputError, match="nonnegative"):
        sigma1(-1)


def test_deg_fstar_special_case_delta_one():
    assert deg_fstar(1) == 1
    with pytest.raises(SpecialCase):
        deg_conjectured(1)


def test_deg_conjectured_square_scaling():
    assert deg_conjectured(4) == 2
    assert deg_conjectured(9) == 16
    assert deg_conjectured(16) == 24
    assert deg_conjectured(5) == deg_fstar(5)
    assert deg_conjectured(12) == deg_fstar(12)


def test_admissible_range_contents():
    seq = list(admissible_range(24))
    assert seq == [1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24]
