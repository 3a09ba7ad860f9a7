"""Tests for the truncated bivariate power series ring."""

import random
from fractions import Fraction

import numpy as np
import pytest

from humbert.series import (NotAUnit, NotDivisible, TruncatedSeries,
                            series_to_record)

rng = random.Random(20260826)


def random_series(precision, max_terms=8, unit=False):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        i = rng.randrange(precision)
        j = rng.randrange(precision)
        terms[(i, j)] = rng.randint(-9, 9)
    if unit:
        terms[(0, 0)] = rng.choice([1, -1])
    return TruncatedSeries(terms, precision)


def test_ring_axioms_randomized():
    for _ in range(1000):
        n = rng.choice([4, 6, 8])
        f = random_series(n)
        g = random_series(n)
        h = random_series(n)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        one = TruncatedSeries.one(n)
        zero = TruncatedSeries({}, n)
        assert f * one == f
        assert f + zero == f
        assert f + (-f) == zero


def test_inverse_randomized():
    for _ in range(200):
        n = rng.choice([4, 6, 8, 10])
        f = random_series(n, unit=True)
        g = f.inverse()
        assert f * g == TruncatedSeries.one(n)


def test_inverse_requires_unit():
    f = TruncatedSeries({(1, 0): 1}, 6)
    with pytest.raises(NotAUnit):
        f.inverse()
    with pytest.raises(NotAUnit):
        TruncatedSeries({}, 6).inverse()


def test_inverse_requires_constant_term_plus_minus_one():
    # 2 + p is invertible over Q but not over Z
    two_plus_p = TruncatedSeries({(0, 0): 2, (1, 0): 1}, 6)
    with pytest.raises(NotAUnit):
        two_plus_p.inverse()
    minus_one = TruncatedSeries({(0, 0): -1, (0, 1): 3}, 6)
    assert minus_one * minus_one.inverse() == TruncatedSeries.one(6)


def test_coefficients_are_ints():
    with pytest.raises(TypeError):
        TruncatedSeries({(0, 0): Fraction(1, 3)}, 4)
    with pytest.raises(TypeError):
        TruncatedSeries({(0, 0): Fraction(2, 1)}, 4)
    with pytest.raises(TypeError):
        TruncatedSeries({(1, 0): 0.5}, 4)
    f = TruncatedSeries({(0, 0): np.int64(3), (1, 2): np.int32(-2)}, 4)
    assert f.terms == {(0, 0): 3, (1, 2): -2}
    assert all(type(c) is int for c in f.terms.values())


def test_inverse_geometric():
    # 1/(1-p) is the geometric series
    n = 8
    f = TruncatedSeries.one(n) - TruncatedSeries({(1, 0): 1}, n)
    g = f.inverse()
    assert g == TruncatedSeries({(i, 0): 1 for i in range(n)}, n)


def test_monomial_division_round_trip():
    for _ in range(200):
        n = rng.choice([6, 8, 10])
        a = rng.randrange(3)
        b = rng.randrange(3)
        f = random_series(n)
        kept = {k: c for k, c in f.terms.items()
                if k[0] + a < n and k[1] + b < n}
        g = TruncatedSeries({(i + a, j + b): c
                             for (i, j), c in f.terms.items()}, n)
        assert g.divide_monomial(a, b) == TruncatedSeries(kept, n)


def test_divide_monomial_not_divisible():
    f = TruncatedSeries({(0, 1): 1, (2, 2): 3}, 6)
    with pytest.raises(NotDivisible):
        f.divide_monomial(1, 0)


def test_truncation_cuts_high_terms():
    f = TruncatedSeries({(3, 0): 1, (4, 0): 1, (0, 5): 7}, 4)
    assert f.terms == {(3, 0): 1}
    g = TruncatedSeries({(3, 0): 1}, 4) * TruncatedSeries({(1, 0): 1}, 4)
    assert g == TruncatedSeries({}, 4)


def test_mixed_precision_takes_min():
    f = TruncatedSeries.one(10)
    g = TruncatedSeries.one(6)
    assert (f * g).precision == 6
    assert (f + g).precision == 6


def test_serialization_round_trip():
    # the record carries every term, sorted, with denominator 1
    for _ in range(200):
        f = random_series(rng.choice([4, 8, 12]))
        rec = series_to_record(f)
        assert rec["precision"] == f.precision
        assert [[i, j] for i, j, _ in rec["terms"]] == sorted(
            [i, j] for i, j in f.terms)
        assert {(i, j): int(s.removesuffix("/1"))
                for i, j, s in rec["terms"]} == f.terms


def test_serialization_is_sorted_and_stringly_exact():
    f = TruncatedSeries({(2, 1): 3, (0, 0): -2}, 5)
    rec = series_to_record(f)
    assert rec["precision"] == 5
    assert rec["terms"] == [[0, 0, "-2/1"], [2, 1, "3/1"]]
